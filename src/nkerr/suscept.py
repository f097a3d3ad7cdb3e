"""Complex electrical susceptibilities of the two probe transitions.

Closed forms, the coherence-series route they are validated against, and
detuning sweeps.  The coherence route reads its Taylor coefficients straight
from the perturbation series arrays: each coherence is a product of the
ground ket and bra series, and ``coherence_coefficients`` takes its Cauchy
product (``perturb.cauchy_term``), so no sampling is involved.  The closed
forms are written once, on numpy arrays of the single-photon detunings: a
single configuration is a grid of one point, and a sweep evaluates its whole
grid in one pass, masking the rows where a pole sits (``model.near_pole``)
instead of stopping there.

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

from dataclasses import dataclass
from typing import Iterator, Literal, NamedTuple

import numpy as np

from . import model, perturb
from .errors import PoleError
from .model import SystemConfig

SweepAxis = Literal["da", "db", "dc"]

_AXES = ("da", "db", "dc")  # each sweeps the single-photon detuning of modes a, b, c

_LEVELS = {"rho21": (1, 0), "rho43": (3, 2)}  # (ket level, bra level) of each coherence

_D_POLE = "pole: (gamma_1+i*delta_1)(gamma_2+i*delta_2) + |g_b|^2 (n_b+1) = 0"


@dataclass(frozen=True)
class SusceptibilityPoint:
    """The three probe susceptibilities evaluated at one configuration."""

    chi1: complex
    chi3_self: complex
    chi3_cross: complex


@dataclass(frozen=True)
class Coherences:
    """Off-diagonal density-matrix elements of the relaxed ground state."""

    rho21: complex
    rho43: complex


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a detuning sweep; ``point`` is None where a pole sits."""

    axis: SweepAxis
    value: float
    point: SusceptibilityPoint | None
    valid: bool
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class Sweep:
    """A detuning sweep as arrays over its grid ``value``.

    The susceptibilities are NaN on invalid rows; ``reasons`` maps the index
    of each invalid row to the pole that sits there.  ``len()``, indexing and
    iteration give one ``SweepRow`` per grid point.
    """

    axis: SweepAxis
    value: np.ndarray
    chi1: np.ndarray
    chi3_self: np.ndarray
    chi3_cross: np.ndarray
    valid: np.ndarray
    reasons: dict[int, str]

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, k: int) -> SweepRow:
        k = range(len(self))[k]
        return self._row(k, *(column[k].item() for column in self._columns()))

    def __iter__(self) -> Iterator[SweepRow]:
        return map(self._row, range(len(self)), *(column.tolist() for column in self._columns()))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.value, self.valid, self.chi1, self.chi3_self, self.chi3_cross

    def _row(self, k: int, value: float, valid: bool, chi1: complex, chi3_self: complex,
             chi3_cross: complex) -> SweepRow:
        if not valid:
            return SweepRow(self.axis, value, None, False, self.reasons[k])
        return SweepRow(self.axis, value, SusceptibilityPoint(chi1, chi3_self, chi3_cross), True)


class _ClosedForms(NamedTuple):
    chi1: np.ndarray
    chi3_self: np.ndarray
    chi3_cross: np.ndarray
    # (mask, message) of each pole, in the order a point reports them; chi1
    # and chi3_self have only the first two
    poles: tuple[tuple[np.ndarray, str], ...]


def _closed_forms(config: SystemConfig, delta_a, delta_b, delta_c) -> _ClosedForms:
    """chi1, chi3_self and chi3_cross at arrays of single-photon detunings.

    Scalars broadcast.  Every quantity is an array of the common shape, so an
    element does not depend on how many points are evaluated with it.  Values
    where a pole sits are not meaningful.
    """
    da, db, dc = np.broadcast_arrays(*(np.atleast_1d(np.asarray(d, dtype=float))
                                       for d in (delta_a, delta_b, delta_c)))
    d1, d2, _ = model.multi_photon_detunings(da, db, dc)
    g1, g2, g3 = config.gamma
    gb2n = model.pump_coupling(config)
    pair = (g1 + 1j * d1) * (g2 + 1j * d2)
    den = pair + gb2n
    pole3, at_pole3 = model.three_photon_term(da, db, dc, g3)
    eps_a = model.probe_strength(config.mode_a)
    eps_c = model.probe_strength(config.mode_c)
    poles = ((model.near_pole(den, np.maximum(abs(pair), gb2n)), _D_POLE),
             (np.broadcast_to(eps_a == 0, da.shape), _no_probe_message(config.mode_a)),
             (at_pole3, model.THREE_PHOTON_POLE),
             (np.broadcast_to(eps_c == 0, da.shape), _no_probe_message(config.mode_c)))
    ga2 = abs(config.mode_a.g) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chi1 = ga2 * (1j * g2 - d2) / (eps_a**2 * den)
        chi3_self = (2.0 * ga2**2 * (1j * g2 - d2) * ((g2 + 1j * d2) ** 2 - gb2n)
                     / (3.0 * eps_a**4 * den**3))
        chi3_cross = (ga2 * gb2n * abs(config.mode_c.g) ** 2
                      / (6.0 * eps_a**2 * eps_c**2 * pole3 * den**2))
    return _ClosedForms(chi1, chi3_self, chi3_cross, poles)


def _no_probe_message(mode: model.FieldMode) -> str:
    return (f"pole: eps_{mode.label} = 0 "
            f"(probe '{mode.label}' carries no photons or no coupling)")


def _at_config(config: SystemConfig, poles_checked: int | None = None) -> _ClosedForms:
    """The closed forms at the configuration's own detunings; PoleError at a pole."""
    forms = _closed_forms(config, config.mode_a.delta, config.mode_b.delta,
                          config.mode_c.delta)
    for mask, message in forms.poles[:poles_checked]:
        if mask[0]:
            raise PoleError(message)
    return forms


def chi1(config: SystemConfig) -> complex:
    """Linear susceptibility of the 1<->2 probe."""
    return complex(_at_config(config, 2).chi1[0])


def chi3_self(config: SystemConfig) -> complex:
    """Self-Kerr susceptibility of the 1<->2 probe."""
    return complex(_at_config(config, 2).chi3_self[0])


def chi3_cross(config: SystemConfig) -> complex:
    """Cross-Kerr susceptibility coupling the two probes."""
    return complex(_at_config(config).chi3_cross[0])


def susceptibility_point(config: SystemConfig) -> SusceptibilityPoint:
    return SusceptibilityPoint(*(complex(chi[0]) for chi in _at_config(config)[:3]))


def _ket_bra_coefficients(config: SystemConfig, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Bare-basis [p, q, level] coefficients of the relaxed ground ket and its bra."""
    table = perturb.build_series(model.split(config), 1, order)
    return table.A[0] @ table.basis.right.T, table.A[1] @ table.basis.left


def coherences(config: SystemConfig, order: int = 3) -> Coherences:
    """rho21 and rho43 of the relaxed ground state built to the given total order.

    Each is the product of the ket and bra partial sums, both from one
    series table.  Cross-Kerr content requires order >= 3.  The bra side
    comes from the companion series of the perturbation table, so the
    lossless limit is the ordinary conjugate.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    kets, bras = _ket_bra_coefficients(config, order)
    x, y = model.perturbation_strengths(config)
    values = {element: complex(perturb.power_sum(kets[..., ket], x, y)
                               * perturb.power_sum(bras[..., bra], x, y))
              for element, (ket, bra) in _LEVELS.items()}
    return Coherences(**values)


def coherence_coefficients(config: SystemConfig, order: int = 3,
                           element: str = "rho21") -> np.ndarray:
    """Taylor coefficients c[p, q] of eps_a**p eps_c**q in the chosen coherence.

    c[p, q] is the order-(p, q) Cauchy product of the ket and bra series of
    the relaxed ground state, for p + q <= order; higher entries are zero.
    """
    if element not in _LEVELS:
        raise ValueError(f"element must be one of {sorted(_LEVELS)}, got {element!r}")
    kets, bras = _ket_bra_coefficients(config, order)
    ket_level, bra_level = _LEVELS[element]
    ket, bra = kets[..., ket_level, None], bras[..., bra_level, None]
    c = np.zeros((order + 1, order + 1), dtype=complex)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            c[p, q] = perturb.cauchy_term(ket, bra, p, q)
    return c


def sweep(config: SystemConfig, axis: SweepAxis, lo: float, hi: float,
          steps: int) -> Sweep:
    """Evaluate the three susceptibilities on a uniform inclusive grid.

    The whole grid is evaluated at once.  Grid points where a closed-form
    denominator vanishes are reported as invalid rows rather than aborting
    the sweep; each carries the message ``susceptibility_point`` raises there.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    value = np.linspace(lo, hi, steps)
    deltas = [config.mode_a.delta, config.mode_b.delta, config.mode_c.delta]
    deltas[_AXES.index(axis)] = value
    forms = _closed_forms(config, *deltas)
    first_pole = np.zeros(steps, dtype=np.int8)  # 1 + index into forms.poles, 0 if none
    for k in reversed(range(len(forms.poles))):
        first_pole[forms.poles[k][0]] = k + 1
    valid = first_pole == 0
    reasons = {int(k): forms.poles[first_pole[k] - 1][1] for k in np.flatnonzero(~valid)}
    chis = [np.where(valid, chi, np.nan) for chi in forms[:3]]
    return Sweep(axis, value, *chis, valid, reasons)
