"""Complex electrical susceptibilities of the two probe transitions.

Closed forms, the coherence-series route they are validated against, and
detuning sweeps.  ``coherence_coefficients`` reads the Taylor arrays of both
coherences off one series table, as truncated products of the ground ket and
bra series (``perturb.series_product``), and ``chis_from_coherences`` reads
the susceptibilities off them.  The closed forms are written once, on numpy
arrays of the single-photon detunings: a single configuration is a grid of
one point, and a sweep evaluates the grid values it is given in one pass,
marking the rows where a pole sits instead of stopping there.  A sweep is
two steps, the grid (``sweep_grid``) and the closed forms at its values
(``sweep_at``); each row depends on its own value only, so a grid may be
evaluated in slices, as ``nkerr sweep`` does chunk by chunk.  Which pole
sits at a point is one code per point from the table ``model.POLES``, and a
sweep hands it out as its ``pole`` array; a susceptibility that is not
finite is its last entry.  A closed form's poles are those of its
denominators (``_DENOMINATORS``).

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

import math
from typing import Any, Literal, NamedTuple

import numpy as np

from . import model, perturb
from .model import SystemConfig

SweepAxis = Literal["da", "db", "dc"]

_AXES = ("da", "db", "dc")  # each sweeps the single-photon detuning of modes a, b, c

_LEVELS = ((1, 0), (3, 2))  # (ket level, bra level) of rho21 and of rho43

class SusceptibilityPoint(NamedTuple):
    """The three probe susceptibilities evaluated at one configuration."""

    chi1: complex
    chi3_self: complex
    chi3_cross: complex


class Coherences(NamedTuple):
    """rho21 and rho43 of the relaxed ground state: values, Taylor arrays or chis read off them."""

    rho21: Any
    rho43: Any


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


# The poles of each closed form: the model pole codes of its denominators.
_DENOMINATORS = dict(chi1=(model.PUMP_PAIR, model.PROBE_A),
                     chi3_self=(model.PUMP_PAIR, model.PROBE_A),
                     chi3_cross=(model.PUMP_PAIR, model.PROBE_A, model.THREE_PHOTON, model.PROBE_C))


def _closed_forms(config: SystemConfig, delta_a, delta_b, delta_c,
                  forms: tuple[str, ...] = tuple(_DENOMINATORS)) -> tuple[dict, np.ndarray]:
    """({name: values} of the named ``forms``, pole code) at arrays of detunings.

    Scalars broadcast.  Every quantity is an array of the common shape, so an
    element does not depend on how many points are evaluated with it.  Values
    where a pole sits are not meaningful; the pole code is ``model.pole_code``
    of the denominators of the named ``forms`` and of their values.  PoleError
    where a term of a named form that does not depend on the detunings leaves
    double range; the other forms are not evaluated.
    """
    da, db, dc = np.broadcast_arrays(*(np.atleast_1d(np.asarray(d, dtype=float))
                                       for d in (delta_a, delta_b, delta_c)))
    g2 = config.gamma[1]
    with model.in_double_range(), np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, d2, _ = model.multi_photon_detunings(da, db, dc)
        terms = model.pole_terms(config, da, db, dc)
        (den, *_), (eps_a, _), (pole3, *_), (eps_c, _), (gb2n, _) = terms
        ga2 = abs(config.mode_a.g) ** 2
        closed_forms = dict(
            chi1=lambda: ga2 * (1j * g2 - d2) / (eps_a**2 * den),
            chi3_self=lambda: (2.0 * ga2**2 * (1j * g2 - d2) * ((g2 + 1j * d2) ** 2 - gb2n)
                               / (3.0 * eps_a**4 * den**3)),
            chi3_cross=lambda: (ga2 * gb2n * abs(config.mode_c.g) ** 2
                                / (6.0 * eps_a**2 * eps_c**2 * pole3 * den**2)))
        chis = {form: closed_forms[form]() for form in forms}
        poles = sorted({k for form in forms for k in _DENOMINATORS[form]})
        return chis, model.pole_code(terms, poles, *chis.values())


def _at_config(config: SystemConfig, forms: tuple[str, ...] = tuple(_DENOMINATORS)) -> list:
    """The named closed forms at the configuration's own detunings; PoleError at a pole of one."""
    deltas = config.mode_a.delta, config.mode_b.delta, config.mode_c.delta
    chis, pole = _closed_forms(config, *deltas, forms)
    model.raise_at_pole(pole[0])
    return [complex(chis[form][0]) for form in forms]


def chi1(config: SystemConfig) -> complex:
    """Linear susceptibility of the 1<->2 probe."""
    return _at_config(config, ("chi1",))[0]


def chi3_self(config: SystemConfig) -> complex:
    """Self-Kerr susceptibility of the 1<->2 probe."""
    return _at_config(config, ("chi3_self",))[0]


def chi3_cross(config: SystemConfig) -> complex:
    """Cross-Kerr susceptibility coupling the two probes."""
    return _at_config(config, ("chi3_cross",))[0]


def susceptibility_point(config: SystemConfig) -> SusceptibilityPoint:
    """All three susceptibilities from one run of the closed forms; PoleError at any pole."""
    return SusceptibilityPoint(*_at_config(config))


def coherences(config: SystemConfig, order: int = 3) -> Coherences:
    """rho21 and rho43 of the relaxed ground state built to the given total order.

    Each is the product of the ket and bra partial sums, both from one series
    table: the dressed coefficients are summed at (eps_a, eps_c) first, then
    taken to the bare basis.  Cross-Kerr content requires order >= 3.  The
    bra side is the table's bra series ``A[1]``, so the lossless limit is the
    ordinary conjugate.  Each call builds its own split and table.  ValueError
    unless order is an integer >= 1; the out-of-range PoleError where a sum overflows.
    """
    if not (model._is_nonnegative_int(order) and order >= 1):
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    sp = model.split(config)
    table = perturb.build_series(sp, 1, order)
    powers = np.arange(order + 1)
    with model.in_double_range(), np.errstate(over="raise", invalid="raise"):
        dressed = sp.eps_a**powers @ (sp.eps_c**powers @ table.A)  # [s, m]
        ket, bra = table.basis.right @ dressed[0], dressed[1] @ table.basis.left
        return Coherences(*(complex(ket[k] * bra[b]) for k, b in _LEVELS))


def coherence_coefficients(config: SystemConfig, order: int = 3) -> Coherences:
    """Taylor coefficients c[p, q] of eps_a**p eps_c**q in rho21 and rho43, from one series table.

    c[p, q] is the order-(p, q) Cauchy product of the ket and bra series of
    the relaxed ground state, for p + q <= order; higher entries are zero.
    ValueError unless order is an integer >= 0, raised by build_series.
    """
    table = perturb.build_series(model.split(config), 1, order)
    kets, bras = table.A[0] @ table.basis.right.T, table.A[1] @ table.basis.left  # [p, q, level]
    return Coherences(*(perturb.series_product(kets[..., k], bras[..., b]) for k, b in _LEVELS))


def chis_from_coherences(config: SystemConfig, c: Coherences) -> Coherences:
    """``Coherences(SusceptibilityPoint(chi1, chi3_self, chi3_cross), chi3_cross)``, per photon.

    ``c`` holds the Taylor arrays t of rho21 and u of rho43, to order >= 3
    (``coherence_coefficients``).  With eps = |g| sqrt(n), |g|^2 / eps^2 is
    1/n for each probe, so for real positive couplings::

        chi1 = -t[1, 0] / n_a,   chi3_self = -t[3, 0] / (3 n_a^2),
        chi3_cross = -t[1, 2] / (6 n_a n_c) = -u[2, 1] / (6 n_a n_c)

    No probe strength enters, so these check a closed form's eps normalisation
    too.  The probe's PoleError where n_a or n_c is 0, else ValueError below order 3.
    """
    n_a, n_c = config.mode_a.n, config.mode_c.n
    model.raise_at_pole(model.PROBE_A if n_a == 0 else model.PROBE_C if n_c == 0 else 0)
    t, u = c
    if min(len(t), len(u)) < 4:
        raise ValueError(f"the Taylor arrays must be of order >= 3, got {min(len(t), len(u)) - 1}")
    cross = 6 * n_a * n_c
    chis = SusceptibilityPoint(complex(-t[1, 0] / n_a), complex(-t[3, 0] / (3 * n_a**2)),
                               complex(-t[1, 2] / cross))
    return Coherences(chis, complex(-u[2, 1] / cross))


def sweep_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """The uniform inclusive grid of a sweep, ``np.linspace(lo, hi, steps)``.

    ValueError for ``steps`` that is not an integer >= 2, a bound that is not a
    finite number (a bool is not) or a span ``hi - lo`` that is not, or a grid too large.
    """
    if not (model._is_nonnegative_int(steps) and steps >= 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not (model._is_finite(lo, math.isfinite) and model._is_finite(hi, math.isfinite)
            and model._is_finite(float(hi) - float(lo), math.isfinite)):
        raise ValueError(f"lo and hi must be finite and hi - lo within double range, "
                         f"got {lo!r} and {hi!r}")
    try:
        return np.linspace(lo, hi, steps)
    except MemoryError:
        raise ValueError(f"steps={steps} is too many: the grid does not fit in memory") from None


def sweep_at(config: SystemConfig, axis: SweepAxis, value) -> Sweep:
    """The three susceptibilities where the ``axis`` detuning takes each value of a 1-D array.

    Points where a closed-form denominator vanishes or a susceptibility is
    not finite are reported as invalid rows rather than aborting the sweep:
    their susceptibilities are NaN and their ``pole`` is the code of the
    message ``susceptibility_point`` raises there.  Each row depends on its
    own value only, so the ``Sweep`` of a slice of a grid is that slice of
    the grid's ``Sweep``, bit for bit.  PoleError where a term that does not
    depend on ``value`` is outside double range, and ValueError unless
    ``value`` is 1-D and finite.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    value = model._finite_array(value, float)
    if value is None or value.ndim != 1:
        raise ValueError(f"the {axis} values must be a 1-D array of finite numbers")
    deltas = [config.mode_a.delta, config.mode_b.delta, config.mode_c.delta]
    deltas[_AXES.index(axis)] = value
    chis, pole = _closed_forms(config, *deltas)
    return Sweep(axis, value, *(np.where(pole == 0, chi, np.nan) for chi in chis.values()), pole)

