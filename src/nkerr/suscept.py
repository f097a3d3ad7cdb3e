"""Complex electrical susceptibilities of the two probe transitions.

Closed forms, the coherence-series route they are validated against, and
detuning sweeps.

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

from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from . import model, perturb
from .errors import PoleError
from .model import SystemConfig

SweepAxis = Literal["da", "db", "dc"]

_AXIS_TO_MODE = {"da": "mode_a", "db": "mode_b", "dc": "mode_c"}

_LEVELS = {"rho21": (1, 0), "rho43": (3, 2)}  # (ket level, bra level) of each coherence


@dataclass(frozen=True)
class SusceptibilityPoint:
    """The three probe susceptibilities evaluated at one configuration."""

    chi1: complex
    chi3_self: complex
    chi3_cross: complex
    at: SystemConfig


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


def _denominator(config: SystemConfig) -> complex:
    """D, checked against its pole."""
    d1, d2, _ = config.detunings()
    g1, g2, _ = config.gamma
    gb2n = model.pump_coupling(config)
    pair = (g1 + 1j * d1) * (g2 + 1j * d2)
    return model.off_pole(pair + gb2n, max(abs(pair), gb2n),
                          "pole: (gamma_1+i*delta_1)(gamma_2+i*delta_2) + |g_b|^2 (n_b+1) = 0")


def _probe_strength(mode: model.FieldMode) -> float:
    eps = model.probe_strength(mode)
    if eps == 0:
        raise PoleError(f"pole: eps_{mode.label} = 0 "
                        f"(probe '{mode.label}' carries no photons or no coupling)")
    return eps


def chi1(config: SystemConfig) -> complex:
    """Linear susceptibility of the 1<->2 probe."""
    den = _denominator(config)
    eps_a = _probe_strength(config.mode_a)
    _, d2, _ = config.detunings()
    g2 = config.gamma[1]
    return abs(config.mode_a.g) ** 2 * (1j * g2 - d2) / (eps_a**2 * den)


def chi3_self(config: SystemConfig) -> complex:
    """Self-Kerr susceptibility of the 1<->2 probe."""
    den = _denominator(config)
    eps_a = _probe_strength(config.mode_a)
    _, d2, _ = config.detunings()
    g2 = config.gamma[1]
    gb2n = model.pump_coupling(config)
    num = 2.0 * abs(config.mode_a.g) ** 4 * (1j * g2 - d2) * ((g2 + 1j * d2) ** 2 - gb2n)
    return num / (3.0 * eps_a**4 * den**3)


def chi3_cross(config: SystemConfig) -> complex:
    """Cross-Kerr susceptibility coupling the two probes."""
    den = _denominator(config)
    pole3 = model.three_photon_denominator(config)
    eps_a = _probe_strength(config.mode_a)
    eps_c = _probe_strength(config.mode_c)
    num = abs(config.mode_a.g) ** 2 * model.pump_coupling(config) * abs(config.mode_c.g) ** 2
    return num / (6.0 * eps_a**2 * eps_c**2 * pole3 * den**2)


def susceptibility_point(config: SystemConfig) -> SusceptibilityPoint:
    return SusceptibilityPoint(chi1=chi1(config), chi3_self=chi3_self(config),
                               chi3_cross=chi3_cross(config), at=config)


def _coherence_polynomials(config: SystemConfig, order: int) -> dict[str, Callable]:
    """Each coherence of the relaxed ground state as a polynomial in (eps_a, eps_c)."""
    table = perturb.build_series(model.split(config), 1, order)
    kets = table.A[0] @ table.basis.right.T  # [p, q, bare level]
    bras = table.A[1] @ table.basis.left

    def polynomial(ket_level, bra_level):
        ket_c, bra_c = kets[..., ket_level], bras[..., bra_level]
        return lambda x, y: perturb.power_sum(ket_c, x, y) * perturb.power_sum(bra_c, x, y)

    return {element: polynomial(*levels) for element, levels in _LEVELS.items()}


def coherences(config: SystemConfig, order: int = 3) -> Coherences:
    """rho21 and rho43 of the relaxed ground state built to the given total order.

    Cross-Kerr content requires order >= 3.  The bra side comes from the
    companion series of the perturbation table, so the lossless limit is the
    ordinary conjugate.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    polys = _coherence_polynomials(config, order)
    x, y = model.perturbation_strengths(config)
    return Coherences(rho21=complex(polys["rho21"](x, y)), rho43=complex(polys["rho43"](x, y)))


def coherence_evaluator(config: SystemConfig, order: int = 3,
                        element: str = "rho21") -> Callable[[float, float], complex]:
    """The chosen coherence as a function of formal strengths (eps_a, eps_c).

    The series table is built once from the configuration's split; the
    returned callable evaluates the truncated ground-state polynomial at
    arbitrary strengths, scalars or arrays of them, which is what Taylor
    extraction samples.
    """
    if element not in _LEVELS:
        raise ValueError(f"element must be one of {sorted(_LEVELS)}, got {element!r}")
    return _coherence_polynomials(config, order)[element]


def sweep(config: SystemConfig, axis: SweepAxis, lo: float, hi: float,
          steps: int) -> list[SweepRow]:
    """Evaluate the three susceptibilities on a uniform inclusive grid.

    Grid points where a closed-form denominator vanishes are reported as
    invalid rows rather than aborting the sweep.
    """
    if axis not in _AXIS_TO_MODE:
        raise ValueError(f"axis must be one of {sorted(_AXIS_TO_MODE)}, got {axis!r}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    attr = _AXIS_TO_MODE[axis]
    rows: list[SweepRow] = []
    for value in np.linspace(lo, hi, steps):
        value = float(value)
        mode = replace(getattr(config, attr), delta=value)
        cfg = replace(config, **{attr: mode})
        try:
            rows.append(SweepRow(axis=axis, value=value, point=susceptibility_point(cfg),
                                 valid=True))
        except PoleError as exc:
            rows.append(SweepRow(axis=axis, value=value, point=None, valid=False,
                                 reason=str(exc)))
    return rows
