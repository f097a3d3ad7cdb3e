"""Complex electrical susceptibilities of the two probe transitions.

Closed forms, the bridge from a ground-eigenvalue series to them, and
detuning sweeps.  ``chis_from_energy`` reads the susceptibilities off the
Taylor array E[p, q] of the ground eigenvalue, whichever route built it:
by Hellmann-Feynman the Taylor arrays of the coherences are derivatives of
E, t[p-1, q] = u_a p E[p, q] / 2 for rho21 and u[p, q-1] = u_c q E[p, q] / 2
for rho43, with the probe phases u_a = ``split.va[1, 0]`` and
u_c = ``split.vc[3, 2]``, while E carries no phase.  The closed forms are
written once, on numpy arrays of the single-photon detunings: a single
configuration is a grid of one point, and a sweep evaluates the grid values
it is given in one pass, marking the rows where a pole sits instead of
stopping there.  A sweep is two steps, the grid (``sweep_grid``) and the
closed forms at its values (``sweep_at``); each row depends on its own value
only, so a grid may be evaluated in slices, as ``nkerr sweep`` does chunk by
chunk.  The series engine ``perturb`` is imported by ``coherences`` alone, so
a sweep does not load it.  Which pole sits at a point is one code per point
from the table ``model.POLES``, and a sweep hands it out as its ``pole``
array; a susceptibility that is not finite is its last entry.  The three
closed forms share that one code: ``susceptibility_point`` is the one-row
case of ``sweep_at`` and raises the message of the row's code, so whether a
point has a value does not depend on which susceptibility the caller reads.

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
from typing import Literal, NamedTuple

import numpy as np

from . import model
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


def _closed_forms(config: SystemConfig, delta_a, delta_b, delta_c) -> tuple[tuple, np.ndarray]:
    """((chi1, chi3_self, chi3_cross), pole code) at arrays of detunings.

    A scalar detuning is a one-element array, and each term keeps the shape
    of the detunings it reads: on a ``dc`` sweep, D, chi1, chi3_self and the
    pump-pair pole are evaluated once, on one element, and only delta_3, the
    three-photon pole and chi3_cross run over the rows; the pole code has
    the common shape.  No bit moves for it: a constant term is computed on
    one element, as in a one-row point, and an element does not depend on
    how many points are evaluated with it (the scalar-point, slice and
    corpus tests pin both).  Values where a pole sits are not meaningful;
    the one pole code is ``model.pole_code`` of the four denominators and
    the three values.  PoleError where a term that does not depend on the
    detunings leaves double range.
    """
    da, db, dc = (np.atleast_1d(np.asarray(d, dtype=float)) for d in (delta_a, delta_b, delta_c))
    g2 = config.gamma[1]
    with model.in_double_range(), np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, d2, _ = model.multi_photon_detunings(da, db, dc)
        terms = model.pole_terms(config, da, db, dc)
        (den, *_), (eps_a, _), (pole3, *_), (eps_c, _), (gb2n, _) = terms
        ga2 = abs(config.mode_a.g) ** 2
        chis = (ga2 * (1j * g2 - d2) / (eps_a**2 * den),
                (2.0 * ga2**2 * (1j * g2 - d2) * ((g2 + 1j * d2) ** 2 - gb2n)
                 / (3.0 * eps_a**4 * den**3)),
                (ga2 * gb2n * abs(config.mode_c.g) ** 2
                 / (6.0 * eps_a**2 * eps_c**2 * pole3 * den**2)))
        poles = model.PUMP_PAIR, model.PROBE_A, model.THREE_PHOTON, model.PROBE_C
        return chis, model.pole_code(terms, poles, *chis)


def susceptibility_point(config: SystemConfig) -> SusceptibilityPoint:
    """The three susceptibilities at the configuration's own detunings, the one-row
    case of ``sweep_at``; PoleError with the message of the row's pole code."""
    deltas = config.mode_a.delta, config.mode_b.delta, config.mode_c.delta
    chis, pole = _closed_forms(config, *deltas)
    model.raise_at_pole(pole[0])
    return SusceptibilityPoint(*(complex(chi[0]) for chi in chis))


def coherences(config: SystemConfig, order: int = 3) -> Coherences:
    """rho21 and rho43 of the relaxed ground state built to the given total order.

    Each is the product of the ket and bra partial sums, both from one series
    table: the dressed coefficients are summed at (eps_a, eps_c) first, then
    taken to the bare basis.  Cross-Kerr content requires order >= 3.  The
    bra side is the table's bra series ``A[1]``, so the lossless limit is the
    ordinary conjugate.  Each call builds its own split and table, and imports
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
        ket, bra = table.basis.right @ dressed[0], dressed[1] @ table.basis.left
        return Coherences(*(complex(ket[k] * bra[b]) for k, b in _LEVELS))


def chis_from_energy(config: SystemConfig, E: np.ndarray) -> SusceptibilityPoint:
    """The three susceptibilities read per photon off a ground-eigenvalue series E[p, q].

    E is the Taylor array of eps_a**p eps_c**q in the ground eigenvalue, to
    order >= 4, as ``perturb.build_series(...).E`` or ``oracle.ground_series``
    give it.  With eps = |g| sqrt(n), |g|^2 / eps^2 is 1/n for each probe, so::

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
        return SusceptibilityPoint(complex(-E[2, 0] / n_a), complex(-2 * E[4, 0] / (3 * n_a**2)),
                                   complex(-E[2, 2] / (6 * n_a * n_c)))


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
    return Sweep(axis, value, *(np.where(pole == 0, chi, np.nan) for chi in chis), pole)

