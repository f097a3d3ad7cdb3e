"""Complex electrical susceptibilities of the two probe transitions.

Two routes reach the three susceptibilities, each one guard-free kernel
behind one guarded entry.  The closed forms are ``_chis`` behind
``sweep_at``, which evaluates them on numpy arrays of the single-photon
detunings and marks the rows where a pole sits instead of stopping there;
``susceptibility_point`` is the one-row ``sweep_at`` and raises the message
of that row's pole code, so a point and a sweep cannot drift apart, and a
point has all three values or none.  The bridge is ``_chis_from_series``
behind ``chis_from_energy``, which reads the susceptibilities off the Taylor
array E[p, q] of the ground eigenvalue, whichever route built it: by
Hellmann-Feynman the Taylor arrays of the coherences are derivatives of E,
t[p-1, q] = u_a p E[p, q] / 2 for rho21 and u[p, q-1] = u_c q E[p, q] / 2
for rho43, with the probe phases u_a = ``split.ua`` and u_c = ``split.uc``,
while E carries no phase.  A kernel is arithmetic only, so it runs on exact
rationals too.

A sweep is two steps, rows of the grid (``sweep_grid``) and the closed forms
at their values (``sweep_at``).  The grid is one function of a row range,
whose rows are the bits of ``np.linspace``'s: a row depends on its index only,
and a row of the closed forms on its own value only, so a sweep may be
evaluated a range of rows at a time, as ``nkerr sweep`` does chunk by chunk
without holding the whole grid.  The series engine ``perturb`` is imported by
``coherences`` alone, so a sweep does not load it.  Which pole sits at a point
is one code per point from the table ``model.POLES``, and a sweep hands it out
as its ``pole`` array; a susceptibility that is not finite is its last entry.

Conventions.  Absorption enters through complex detunings
``delta_j - i*gamma_j``; with ``D = (gamma_1 + i*delta_1)(gamma_2 +
i*delta_2) + |g_b|^2 (n_b+1)`` the three closed forms for the 1<->2 probe
are::

    chi1       = |g_a|^2 (i*gamma_2 - delta_2) / (eps_a^2 D)
    chi3_self  = 2 |g_a|^4 (i*gamma_2 - delta_2)
                 [(gamma_2 + i*delta_2)^2 - |g_b|^2 (n_b+1)] / (3 eps_a^4 D^3)
    chi3_cross = |g_a|^2 |g_b|^2 |g_c|^2 (n_b+1)
                 / (6 eps_a^2 eps_c^2 (delta_3 - i*gamma_3) D^2)

evaluated with the probe strengths eps_a = |g_a| sqrt(n_a) and
eps_c = |g_c| sqrt(n_c) of the configuration itself, in natural units
(hbar = eps0 = 1, unit dipole moments).  Only internal consistency is
meaningful at this normalisation, not laboratory units.
"""

from __future__ import annotations

import sys
from typing import Literal, NamedTuple

import numpy as np

from . import model
from .model import SystemConfig

SweepAxis = Literal["da", "db", "dc"]

_AXES = ("da", "db", "dc")  # each sweeps the single-photon detuning of modes a, b, c


class SusceptibilityPoint(NamedTuple):
    """The three probe susceptibilities evaluated at one configuration."""

    chi1: complex
    chi3_self: complex
    chi3_cross: complex


class Coherences(NamedTuple):
    """rho21 and rho43 of the relaxed ground state."""

    rho21: complex
    rho43: complex


class Sweep(NamedTuple):
    """A detuning sweep as arrays over its grid ``value``.

    Every field but ``axis`` is an array over the rows, so a slice of each
    field is the sweep of that slice of the grid.  ``pole`` is the
    ``model.pole_code`` of each row: 0 on a valid row, else k where
    ``model.POLES[k - 1]`` is the pole that sits there; the
    susceptibilities are NaN where it is not 0.  ``len()`` of a ``Sweep`` is
    its number of fields; its number of rows is ``len(sweep.value)``.
    """

    axis: SweepAxis
    value: np.ndarray
    chi1: np.ndarray
    chi3_self: np.ndarray
    chi3_cross: np.ndarray
    pole: np.ndarray


def _chis(d2, g2, ga2, gb2n, gc2, eps_a, eps_c, den, pole3, i=1j) -> tuple:
    """(chi1, chi3_self, chi3_cross) of the module docstring, with D = ``den``,
    delta_3 - i*gamma_3 = ``pole3`` and the imaginary unit ``i``: arithmetic
    only, so it runs on any number type, exact rationals included; the caller
    guards it."""
    return (ga2 * (i * g2 - d2) / (eps_a**2 * den),
            2 * ga2**2 * (i * g2 - d2) * ((g2 + i * d2) ** 2 - gb2n) / (3 * eps_a**4 * den**3),
            ga2 * gb2n * gc2 / (6 * eps_a**2 * eps_c**2 * pole3 * den**2))


def susceptibility_point(config: SystemConfig) -> SusceptibilityPoint:
    """The three susceptibilities at the configuration's own detunings: the one-row
    ``sweep_at``, and PoleError with the message of that row's pole code."""
    row = sweep_at(config, "da", [config.mode_a.delta])
    model.raise_at_pole(row.pole[0])
    return SusceptibilityPoint(*(complex(chi[0]) for chi in row[2:5]))  # the row's three chi's


def coherences(config: SystemConfig, order: int = 3) -> Coherences:
    """rho21 and rho43 of the relaxed ground state built to the given total order.

    Each is the product of the ket and bra partial sums, both from one series
    table: the dressed coefficients k and b are summed at (eps_a, eps_c) first,
    then taken to the bare basis through the pump blocks R2 and L2 of
    ``table.basis``, the only entries of R and L that are not the identity's:
    rho21 = (r11 k1 + r12 k2) b0 and rho43 = k3 (b1 l12 + b2 l22), on Python
    complex numbers.  Cross-Kerr content requires order >= 3.  The
    bra side is the table's bra series ``A[1]``, so the lossless limit is the
    ordinary conjugate.  It takes the split and table from ``model.split`` and
    ``perturb.build_series``, which give back the last ones where the caller
    has just built them for the same configuration object, and imports
    ``perturb``.  ValueError unless order is an integer >= 1; the out-of-range
    PoleError where a sum overflows.
    """
    from . import perturb

    if not (model._is_nonnegative_int(order) and order >= 1):
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    sp = model.split(config)
    table = perturb.build_series(sp, 1, order)
    powers = np.arange(order + 1)
    with model.in_double_range(), model.numpy_range():
        dressed = sp.eps_a**powers @ (sp.eps_c**powers @ table.A)  # [s, m]
    (_, k1, k2, k3), (b0, b1, b2, _) = dressed.tolist()
    _, ((r11, r12), _), ((_, l12), (_, l22)) = table.basis
    rho = Coherences((r11 * k1 + r12 * k2) * b0, k3 * (b1 * l12 + b2 * l22))
    model.check_finite(*rho)  # a Python complex product does not raise past range
    return rho


def chis_from_energy(config: SystemConfig, E: np.ndarray) -> SusceptibilityPoint:
    """The three susceptibilities read per photon off a ground-eigenvalue series E[p, q].

    E is the Taylor array of eps_a**p eps_c**q in the ground eigenvalue, to
    order >= 4, as ``perturb.build_series(...).E`` or ``oracle.ground_series``
    give it.  With eps = |g| sqrt(n), |g|^2 / eps^2 is 1/n for each probe, so
    the kernel ``_chis_from_series`` computes::

        chi1 = -E[2, 0] / n_a,   chi3_self = -2 E[4, 0] / (3 n_a^2),
        chi3_cross = -E[2, 2] / (6 n_a n_c)

    E carries no coupling phase, so these hold for any phases, and no probe
    strength enters, so they check a closed form's eps normalisation too.
    The probe's PoleError where n_a or n_c is 0, else ValueError unless E is
    a 2-D array of finite numbers (a nested list is one) of at least 5 x 5,
    and the out-of-range PoleError where a quotient or a photon number leaves
    double range.
    """
    n_a, n_c = config.mode_a.n, config.mode_c.n
    model.raise_at_pole(model.PROBE_A if n_a == 0 else model.PROBE_C if n_c == 0 else 0)
    E = model._finite_array(E, complex)
    if E is None or E.ndim != 2:
        raise ValueError("the eigenvalue series must be a 2-D array of finite numbers")
    if min(E.shape) < 5:
        raise ValueError(f"the eigenvalue series must be of order >= 4, got {min(E.shape) - 1}")
    with model.in_double_range(), model.numpy_range():
        chis = _chis_from_series(E[2, 0], E[4, 0], E[2, 2], n_a, n_c)
        return SusceptibilityPoint(*map(complex, chis))


def _chis_from_series(e20, e40, e22, n_a, n_c) -> tuple:
    """(chi1, chi3_self, chi3_cross) of ``chis_from_energy`` from E[2, 0], E[4, 0]
    and E[2, 2]: arithmetic only, so it runs on any number type, exact
    rationals included; the caller guards it."""
    return -e20 / n_a, -2 * e40 / (3 * n_a**2), -e22 / (6 * n_a * n_c)


def sweep_grid(lo: float, hi: float, steps: int, start: int = 0, stop: int | None = None
               ) -> np.ndarray:
    """Rows [start, stop) of the uniform inclusive grid of a sweep, all of them by default.

    The grid is ``np.linspace(float(lo), float(hi), steps)`` bit for bit, in
    linspace's own arithmetic: row k is float(k) * step + lo with ``step =
    (hi - lo) / (steps - 1)``, or float(k) / (steps - 1) * (hi - lo) where that
    step underflows to 0, and the last row is hi.  A row's bits depend on k
    alone, so any range of rows is that slice of the whole grid, and
    ``nkerr sweep`` asks each chunk for its own rows.  ValueError for
    ``steps`` that is not an integer >= 2 or is past ``sys.maxsize // 8``
    (numpy's byte count of the whole grid), a bound that is not a finite
    number (a bool is not) or a span ``hi - lo`` that is not, rows that are
    not a range 0 <= start <= stop <= steps, or rows that do not fit in memory.
    """
    if not (model._is_nonnegative_int(steps) and steps >= 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if steps > sys.maxsize // 8:
        raise ValueError(f"steps={steps} is too many: the grid has at most "
                         f"sys.maxsize // 8 = {sys.maxsize // 8} rows")
    low, high = model._finite(lo, float), model._finite(hi, float)
    if low is None or high is None or model._finite(high - low, float) is None:
        raise ValueError(f"lo and hi must be finite and hi - lo within double range, "
                         f"got {lo!r} and {hi!r}")
    stop = steps if stop is None else stop
    if not (model._is_nonnegative_int(start) and model._is_nonnegative_int(stop)
            and start <= stop <= steps):
        raise ValueError(f"rows [{start!r}, {stop!r}) are not a range of the {steps} rows")
    div = int(steps) - 1
    span = high - low
    # float(k) for each row k, as linspace's arange gives it: each offset
    # k - int(float(start)) is a small integer, exact as a float, and adding
    # float(start) rounds once.  Casting an int64 arange would run numpy's
    # integer-to-float cast, whose first use added 68 KiB to a process's RSS
    base = float(start)
    try:
        row = np.arange(start - int(base), stop - int(base), dtype=float)
    except MemoryError:
        raise ValueError(f"rows [{start}, {stop}) of the grid do not fit in memory") from None
    row += base
    step = span / div
    if step == 0:  # a subnormal span, as linspace handles it (numpy gh-5437)
        row /= div
        row *= span
    else:
        row *= step
    row += low
    if start < stop == steps:
        row[-1] = high
    return row


def sweep_at(config: SystemConfig, axis: SweepAxis, value) -> Sweep:
    """The three susceptibilities where the ``axis`` detuning takes each value of a 1-D array.

    Points where a closed-form denominator vanishes or a susceptibility is
    not finite are reported as invalid rows rather than aborting the sweep:
    their susceptibilities are NaN and their ``pole`` is the code of the
    message ``susceptibility_point`` raises there.  A detuning off the axis
    is one element, and each term keeps the shape of the detunings it reads:
    on a ``dc`` sweep only delta_3, the three-photon pole and chi3_cross run
    over the rows.  An element does not depend on how many are evaluated
    with it, so the ``Sweep`` of a slice of a grid is that slice of the
    grid's ``Sweep``, bit for bit.  PoleError where a term that does not
    depend on ``value`` is outside double range, and ValueError unless
    ``value`` is 1-D and finite.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    value = model._finite_array(value, float)
    if value is None or value.ndim != 1:
        raise ValueError(f"the {axis} values must be a 1-D array of finite numbers")
    deltas = [np.atleast_1d(mode.delta) for mode in (config.mode_a, config.mode_b, config.mode_c)]
    deltas[_AXES.index(axis)] = value
    with model.in_double_range(), np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, d2, _ = model.multi_photon_detunings(*deltas)
        terms = model.pole_terms(config, *deltas)
        (den, *_), (eps_a, _), (pole3, *_), (eps_c, _), (gb2n, _) = terms
        chis = _chis(d2, config.gamma[1], abs(config.mode_a.g) ** 2, gb2n,
                     abs(config.mode_c.g) ** 2, eps_a, eps_c, den, pole3)
        poles = model.PUMP_PAIR, model.PROBE_A, model.THREE_PHOTON, model.PROBE_C
        pole = model.pole_code(terms, poles, *chis)
    return Sweep(axis, value, *(np.where(pole == 0, chi, np.nan) for chi in chis), pole)

