"""Exact Gaussian rationals re + i*im, with ``fractions.Fraction`` parts.

Standard library only.  The kernels ``effective._kerr``, ``suscept._chis``
and ``suscept._chis_from_series`` use nothing but +, -, *, / and integer
powers, so on these numbers they give the exact value of the formula they
implement; fed the exact values of a float call's inputs, they give that
call's true error.
"""

from __future__ import annotations

from fractions import Fraction


def lift(x) -> Gaussian:
    """The exact value of an int, a Fraction, a float or a complex (numpy's included)."""
    if isinstance(x, Gaussian):
        return x
    if isinstance(x, complex):
        return Gaussian(x.real, x.imag)
    return Gaussian(x)


class Gaussian:
    """re + i*im with rational re and im; a float operand is taken at its exact value."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        self.re, self.im = Fraction(re), Fraction(im)

    def __repr__(self) -> str:
        return f"Gaussian({self.re!r}, {self.im!r})"

    def __eq__(self, other) -> bool:
        other = lift(other)
        return self.re == other.re and self.im == other.im

    def __neg__(self) -> Gaussian:
        return Gaussian(-self.re, -self.im)

    def __add__(self, other) -> Gaussian:
        other = lift(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> Gaussian:
        return self + -lift(other)

    def __rsub__(self, other) -> Gaussian:
        return lift(other) + -self

    def __mul__(self, other) -> Gaussian:
        other = lift(other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Gaussian:
        other = lift(other)
        n = other.norm2()
        return Gaussian((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other) -> Gaussian:
        return lift(other) / self

    def __pow__(self, k: int) -> Gaussian:
        """An integer power >= 1, by repeated multiplication."""
        if not (isinstance(k, int) and k >= 1):
            raise TypeError(f"only integer powers >= 1, got {k!r}")
        power = self
        for _ in range(k - 1):
            power = power * self
        return power

    def norm2(self) -> Fraction:
        """|z|**2, exactly."""
        return self.re * self.re + self.im * self.im


I = Gaussian(0, 1)
