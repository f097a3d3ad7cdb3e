"""Closed-form linear, self-Kerr and cross-Kerr response of the relaxed atom.

The coefficients are defined in the lossless regime only (decay belongs to
the susceptibility module).  ``_kerr`` alone writes them, with no guard, in
terms of the multi-photon detunings, ``G_b = |g_b|^2 (n_b + 1)`` and the
pump-pair denominator D of ``model.POLES``, which at gamma = 0 is
``G_b - delta_1*delta_2``; the cross-Kerr coefficient additionally diverges at
delta_3 = 0.  The guards are the callers': ``coefficients`` reads D, delta_3
and G_b off the pole terms it checks, and ``pure_cross_kerr`` its G_b.  A
result outside double range is the table's last entry.  The n_a**2 scaling of
the fourth-order eigenvalue correction forces the self-Kerr numerator to carry
|g_a|^4; this form is cross-validated against Taylor extraction of the exact
ground eigenvalue in the test suite.  ``phase_angle`` and the Raman test in
``pure_cross_kerr`` are the package's only definitions of those two rules.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import model
from .errors import NotHermitianError, NotResonantError
from .model import SystemConfig

RESONANCE_RTOL = 1e-12


class KerrCoefficients(NamedTuple):
    """Angular-frequency coefficients of the effective photon-number evolution.

    The relaxed ground state accumulates phase exp(-i*(L*n_a + S*n_a**2 +
    K*n_a*n_c)*t) with L = ``linear``, S = ``self_kerr``, K = ``cross_kerr``.
    """

    linear: float
    self_kerr: float
    cross_kerr: float


def _require_lossless(config: SystemConfig) -> None:
    if not config.is_hermitian:
        raise NotHermitianError(
            "Kerr coefficients are defined for gamma = (0, 0, 0) only; "
            "the lossy response is given by the susceptibilities ('nkerr sweep')")


def _kerr(d2, d3, den, ga2, gb2n, gc2) -> tuple:
    """(L, S, K) = (delta_2 |g_a|^2 / D, -delta_2 (delta_2^2 + G_b) |g_a|^4 / D^3,
    -|g_a|^2 G_b |g_c|^2 / (delta_3 D^2)) with D = ``den``: arithmetic only, so it
    runs on any number type, exact rationals included; the callers guard it."""
    return (d2 * ga2 / den, -d2 * (d2**2 + gb2n) * ga2**2 / den**3,
            -ga2 * gb2n * gc2 / (d3 * den**2))


def coefficients(config: SystemConfig) -> KerrCoefficients:
    """Linear, self-Kerr and cross-Kerr coefficients of the relaxed ground state."""
    _require_lossless(config)
    with model.in_double_range():
        ga2, gc2 = abs(config.mode_a.g) ** 2, abs(config.mode_c.g) ** 2
        (den, *_), _, (pole3, *_), _, (gb2n, _) = model.check_poles(
            config, model.PUMP_PAIR, model.THREE_PHOTON)
        coeffs = _kerr(config.detunings().delta2, pole3.real, den.real, ga2, gb2n, gc2)
    model.check_finite(*coeffs)
    return KerrCoefficients(*coeffs)


def pure_cross_kerr(config: SystemConfig) -> float:
    """Cross-Kerr coefficient on Raman resonance, where the response is pure.

    Requires delta_2 = 0 to within ``RESONANCE_RTOL`` of max(1, |delta_1|), and
    delta_1*delta_2 of G_b = |g_b|^2 (n_b+1); then the linear and self-Kerr terms
    vanish and the full coefficient reduces to -|g_a|^2 |g_c|^2 / (delta_3 G_b).
    """
    _require_lossless(config)
    d1, d2, d3 = config.detunings()
    if abs(d2) > RESONANCE_RTOL * max(1.0, abs(d1)):
        raise NotResonantError(f"delta_2 = {d2!r} is not Raman-resonant")
    with model.in_double_range():
        *_, (gb2n, _) = model.check_poles(config, model.THREE_PHOTON, model.PUMP)
        if abs(d1 * d2) > RESONANCE_RTOL * gb2n:
            raise NotResonantError(f"delta_1*delta_2 = {d1 * d2!r} is not small against G_b")
        pure = -abs(config.mode_a.g) ** 2 * abs(config.mode_c.g) ** 2 / (d3 * gb2n)
    model.check_finite(pure)
    return pure


def phase_angle(coeffs: KerrCoefficients, n_a: int, n_c: int, t: float) -> float:
    """Angle (L*n_a + S*n_a**2 + K*n_a*n_c)*t the Fock product |n_a, n_c> turns by.

    ValueError unless n_a and n_c are integers >= 0, held as Python ints as in ``FieldMode``,
    and t a finite number (a bool or an int past double range is not); the out-of-range
    PoleError where the angle is not finite.
    """
    if not (model._is_nonnegative_int(n_a) and model._is_nonnegative_int(n_c)):
        raise ValueError(f"photon numbers must be integers >= 0, got {n_a!r} and {n_c!r}")
    n_a, n_c = int(n_a), int(n_c)
    if not model._is_finite(t, math.isfinite):
        raise ValueError(f"t must be finite, got {t!r}")
    with model.in_double_range():  # an int past double range raises OverflowError
        angle = (coeffs.linear * n_a + coeffs.self_kerr * n_a**2
                 + coeffs.cross_kerr * n_a * n_c) * t
        model.check_finite(angle)
    return angle

