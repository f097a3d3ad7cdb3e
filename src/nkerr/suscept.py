"""Complex electrical susceptibilities of the two probe transitions.

Closed forms, the coherence-series route they are validated against, and
detuning sweeps.  The coherence route reads its Taylor coefficients straight
from the perturbation series arrays: each coherence is a product of the
ground ket and bra series, and ``coherence_coefficients`` is their truncated
product (``perturb.series_product``), so no sampling is involved.  The
closed forms are written once, on numpy arrays of the single-photon
detunings: a single configuration is a grid of one point, and a sweep
evaluates the grid values it is given in one pass, marking the rows where a
pole sits instead of stopping there.  A sweep is two steps, the grid
(``sweep_grid``) and the closed forms at its values (``sweep_at``); each row
depends on its own value only, so a grid may be evaluated in slices, as
``nkerr sweep`` does chunk by chunk.  Which pole sits at a point is one code
per point from the table ``model.POLES``, and a sweep hands it out as its
``pole`` array; a susceptibility that is not finite is its last entry.  A
closed form's poles are those of its denominators (``_DENOMINATORS``).

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
meaningful at this normalisation, not laboratory units.  The bridge to the
coherence route: writing rho21 = sum t^{(p,q)} eps_a^p eps_c^q for the
relaxed ground state (real positive couplings),

    chi1       = -|g_a|^2 t^{(1,0)} / eps_a^2
    chi3_self  = -|g_a|^4 t^{(3,0)} / (3 eps_a^4)
    chi3_cross = -|g_a|^2 |g_c|^2 t^{(1,2)} / (6 eps_a^2 eps_c^2)

and seen from the 3<->4 probe, with rho43 = sum u^{(p,q)} eps_a^p eps_c^q,
chi3_cross = -|g_a|^2 |g_c|^2 u^{(2,1)} / (6 eps_a^2 eps_c^2) as well;
in the lossless limit chi1 = -L/eps_a^2, chi3_self = -2S/(3 eps_a^4),
chi3_cross = -K/(6 eps_a^2 eps_c^2) against the Kerr coefficients.  These
identities are what the oracle tests pin down.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from . import model, perturb
from .model import SystemConfig

SweepAxis = Literal["da", "db", "dc"]

_AXES = ("da", "db", "dc")  # each sweeps the single-photon detuning of modes a, b, c

_LEVELS = {"rho21": (1, 0), "rho43": (3, 2)}  # (ket level, bra level) of each coherence

class SusceptibilityPoint(NamedTuple):
    """The three probe susceptibilities evaluated at one configuration."""

    chi1: complex
    chi3_self: complex
    chi3_cross: complex


class Coherences(NamedTuple):
    """Off-diagonal density-matrix elements of the relaxed ground state."""

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

    Each is the product of the ket and bra partial sums, both from one
    series table: the dressed coefficients are summed at (eps_a, eps_c)
    first, then taken to the bare basis.  Cross-Kerr content requires
    order >= 3.  The bra side comes from the companion series of the
    perturbation table, so the lossless limit is the ordinary conjugate.
    Each call builds its own split and table, even where the caller already
    holds those of the same configuration.  ValueError unless order is an
    integer >= 1.
    """
    if not (model._is_nonnegative_int(order) and order >= 1):
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    sp = model.split(config)
    table = perturb.build_series(sp, 1, order)
    powers = np.arange(order + 1)
    dressed = sp.eps_a**powers @ (sp.eps_c**powers @ table.A)  # [s, m]
    ket, bra = table.basis.right @ dressed[0], dressed[1] @ table.basis.left
    return Coherences(*(complex(ket[k] * bra[b]) for k, b in _LEVELS.values()))


def coherence_coefficients(config: SystemConfig, order: int = 3,
                           element: str = "rho21") -> np.ndarray:
    """Taylor coefficients c[p, q] of eps_a**p eps_c**q in the chosen coherence.

    c[p, q] is the order-(p, q) Cauchy product of the ket and bra series of
    the relaxed ground state, for p + q <= order; higher entries are zero.
    ValueError unless order is an integer >= 0, raised by build_series.
    """
    if element not in _LEVELS:
        raise ValueError(f"element must be one of {sorted(_LEVELS)}, got {element!r}")
    table = perturb.build_series(model.split(config), 1, order)
    kets, bras = table.A[0] @ table.basis.right.T, table.A[1] @ table.basis.left  # [p, q, level]
    ket_level, bra_level = _LEVELS[element]
    return perturb.series_product(kets[..., ket_level], bras[..., bra_level])


def sweep_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """The uniform inclusive grid of a sweep, ``np.linspace(lo, hi, steps)``.

    ValueError for ``steps`` that is not an integer >= 2, a bound that is not
    finite, or a grid too large to allocate.
    """
    if not (model._is_nonnegative_int(steps) and steps >= 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not np.all(np.isfinite((lo, hi))):
        raise ValueError(f"lo and hi must be finite, got {lo!r} and {hi!r}")
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
    value = np.asarray(value, dtype=float)
    if value.ndim != 1 or not np.isfinite(value).all():
        raise ValueError(f"the {axis} values must be a 1-D array of finite numbers")
    deltas = [config.mode_a.delta, config.mode_b.delta, config.mode_c.delta]
    deltas[_AXES.index(axis)] = value
    chis, pole = _closed_forms(config, *deltas)
    return Sweep(axis, value, *(np.where(pole == 0, chi, np.nan) for chi in chis.values()), pole)

