"""Single-manifold model of a four-level atom driven by three field modes.

Conventions used throughout the package:

* hbar = 1 and epsilon_0 = 1, so couplings, detunings and decay rates are
  all angular frequencies.  A gate judges a size against the entries it sums,
  not a floor of 1, so it has no unit; only ``effective.pure_cross_kerr`` keeps one.
* Atomic levels 1..4 map onto rows/columns 0..3 of the canonical basis, in
  that order.  All matrices are plain complex numpy arrays.
* Mode "a" drives the 1<->2 transition, mode "b" drives 2<->3 and mode "c"
  drives 3<->4, which closes a four-dimensional manifold of atom+photon
  product states under the interaction.
* Decay enters as complex detunings ``delta_j - i*gamma_j`` on the matrix
  diagonal; ``gamma = (0, 0, 0)`` selects the Hermitian (lossless) regime.
* In the single-manifold matrix the (1,2) entry carries the conjugated "a"
  Rabi frequency and (2,1) the unconjugated one, and likewise (3,4)/(4,3)
  for mode "c"; this fixed phase placement is normative for everything
  downstream.
* ``split`` alone writes the matrix entries, into h0, va and vc, and
  ``PerturbationSplit.reconstruct`` alone sums them: the matrix is
  ``split(config).reconstruct()``, and one at other probe strengths is that after ``_replace``.
* ``POLES`` is the one ordered table of where a closed form has no value:
  ``pole_terms`` gives each denominator with the scales it is judged against
  (``near_pole``), and ``pole_code`` names the first pole at each point.
  That code is the one pole decision callers read: a ``suscept.Sweep``
  carries it per row, and a single point raises its message.  The three are
  one body for numpy arrays (``suscept``) and Python floats, on which
  (``check_poles``) they make no numpy value.  Only the functions that
  build or measure matrices import numpy, when they run.
* A term outside double range is the ``OUT_OF_RANGE`` pole, which each function
  that derives one raises and no other module names: code that can raise runs
  in ``in_double_range``, numpy arithmetic in ``numpy_range`` inside it too, and
  ``check_finite`` refuses a result that is inf or NaN.
* ``_is_finite`` judges each number a caller passes and ``_finite_array`` each array;
  no other module calls ``math.isfinite``, ``cmath.isfinite`` or ``np.isfinite``: a
  bool, a non-number or an int past double range is not finite.  A photon number
  (``_is_nonnegative_int``) is held as a Python int.
* Every immutable record the package returns is a ``typing.NamedTuple``, so
  it unpacks, indexes and compares equal to a tuple of the same values;
  assigning a field raises AttributeError, and ``record._replace(...)`` is a
  changed copy.  A record that holds numpy arrays (``PerturbationSplit``,
  ``perturb.DressedBasis`` and ``SeriesTable``, ``oracle.EigenSolution``,
  ``suscept.Sweep``) equals itself, but comparing it with another such
  record raises numpy's ValueError, and hashing it raises TypeError.
  ``@dataclass(frozen=True)`` is kept only on ``FieldMode`` and
  ``SystemConfig``, which check and coerce their fields in ``__post_init__``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, NamedTuple

from .errors import PoleError

if TYPE_CHECKING:
    import numpy as np

ModeLabel = Literal["a", "b", "c"]

_LABELS = ("a", "b", "c")

# A denominator within this fraction of the size of the terms it sums is
# rounding noise around a pole, not a value.
POLE_RTOL = 4 * sys.float_info.epsilon


def _is_numpy(value, kind: str) -> bool:
    """Whether ``value`` is a ``numpy.<kind>``; none is before numpy is loaded."""
    return "numpy" in sys.modules and isinstance(value, getattr(sys.modules["numpy"], kind))


def _is_finite(value, isfinite) -> bool:
    """Whether ``isfinite`` holds for ``value``; a bool (numpy's included), a
    non-number or an integer beyond double range is not a finite number."""
    if isinstance(value, bool) or _is_numpy(value, "bool_"):
        return False
    try:
        return isfinite(value)
    except (TypeError, OverflowError):
        return False


def _finite_array(value, dtype) -> np.ndarray | None:
    """``value`` as an array of ``dtype``; None where it does not convert or is not finite."""
    import numpy as np
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return None
    return array if np.isfinite(array).all() else None


def _is_nonnegative_int(n) -> bool:
    """Whether ``n`` is an integer >= 0, numpy's included; a bool or a float is not.

    The one rule for a photon number and for a series order or state index.
    """
    return not isinstance(n, bool) and (isinstance(n, int) or _is_numpy(n, "integer")) and n >= 0


@dataclass(frozen=True)
class FieldMode:
    """One driving mode: complex coupling, single-photon detuning, photon number."""

    label: ModeLabel
    g: complex
    delta: float
    n: int

    def __post_init__(self) -> None:
        if self.label not in _LABELS:
            raise ValueError(f"unknown mode label {self.label!r}; expected one of {_LABELS}")
        if not _is_nonnegative_int(self.n):
            raise ValueError(f"photon number must be an integer >= 0, got {self.n!r}")
        if not (_is_finite(self.g, cmath.isfinite) and _is_finite(self.delta, math.isfinite)):
            raise ValueError(f"coupling and detuning must be finite numbers, got g={self.g!r}, "
                             f"delta={self.delta!r}")
        # Python numbers: a sum of detunings overflows to inf and a power of |g|
        # or a product with n raises OverflowError, where numpy's would warn first
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "g", complex(self.g))
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario: the three modes plus decay rates (gamma_1, gamma_2, gamma_3)."""

    mode_a: FieldMode
    mode_b: FieldMode
    mode_c: FieldMode
    gamma: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for mode, label in ((self.mode_a, "a"), (self.mode_b, "b"), (self.mode_c, "c")):
            if mode.label != label:
                raise ValueError(f"mode_{label} carries label {mode.label!r}")
        if len(self.gamma) != 3:
            raise ValueError("gamma must hold exactly three decay rates")
        for g in self.gamma:
            if not _is_finite(g, math.isfinite) or g < 0:
                raise ValueError(f"decay rates must be finite and >= 0, got {self.gamma}")
        object.__setattr__(self, "gamma", tuple(map(float, self.gamma)))  # hashable, comparable

    @property
    def is_hermitian(self) -> bool:
        return self.gamma == (0.0, 0.0, 0.0)

    def detunings(self) -> "MultiPhotonDetunings":
        return multi_photon_detunings(self.mode_a.delta, self.mode_b.delta, self.mode_c.delta)


class MultiPhotonDetunings(NamedTuple):
    """Cumulative one-, two- and three-photon detunings delta_1, delta_2, delta_3."""

    delta1: float
    delta2: float
    delta3: float


class ManifoldIndex(NamedTuple):
    """Product basis label |atomic_level, n_a, n_b, n_c>."""

    atomic_level: int
    n_a: int
    n_b: int
    n_c: int


class PerturbationSplit(NamedTuple):
    """Decomposition H = h0 + eps_a*va + eps_c*vc; the probe phases sit in va and vc.

    ``va`` is nonzero only on the (1,2)/(2,1) entries and ``vc`` only on
    (3,4)/(4,3), each with unit modulus; the strengths are
    eps_a = |Omega_a|/2 and eps_c = |Omega_c|/2.  Arrays are shared, not
    copied; treat them as read-only.
    """

    h0: np.ndarray
    va: np.ndarray
    vc: np.ndarray
    eps_a: float
    eps_c: float

    def reconstruct(self) -> np.ndarray:
        """h0 + eps_a*va + eps_c*vc, a new array: the package's one sum of the split."""
        return self.h0 + self.eps_a * self.va + self.eps_c * self.vc


def multi_photon_detunings(delta_a: float, delta_b: float, delta_c: float) -> MultiPhotonDetunings:
    """Cumulative detunings (delta_a, delta_a - delta_b, delta_a - delta_b + delta_c)."""
    d1 = delta_a
    d2 = delta_a - delta_b
    d3 = d2 + delta_c
    return MultiPhotonDetunings(d1, d2, d3)


def rabi_frequency(mode: FieldMode) -> complex:
    """Rabi frequency of a mode; mode "b" couples to n+1 photons, "a" and "c" to n."""
    with in_double_range():  # a photon number past double range is no float
        omega = 2.0 * mode.g * math.sqrt(mode.n + 1 if mode.label == "b" else mode.n)
    check_finite(omega)
    return omega


def probe_strength(mode: FieldMode) -> float:
    """|Omega|/2, the perturbation strength of a probe mode."""
    with in_double_range():  # abs of a finite complex past double range
        return abs(rabi_frequency(mode)) / 2.0


def pump_coupling(config: SystemConfig) -> float:
    """G_b = |g_b|^2 (n_b + 1) = |Omega_b|^2 / 4, the squared pump coupling."""
    with in_double_range():
        gb2n = abs(config.mode_b.g) ** 2 * (config.mode_b.n + 1)
    check_finite(gb2n)
    return gb2n


def near_pole(value, *scales):
    """Where ``value`` is finite and within ``POLE_RTOL`` of the largest of ``scales``
    of zero; Python numbers or arrays, which broadcast.  A term that overflows is
    out of range, not at its pole."""
    size = abs(value)  # at most RTOL * max(scales) is at most RTOL * one of them
    hit = sum(size <= POLE_RTOL * scale for scale in scales) > 0
    return hit & (value * 0 == 0)  # value * 0 is NaN where value is inf or NaN


# Each closed-form pole as its PoleError message, in the order a point
# reports them; a point's pole code is 1 + the index of its first pole, or 0.
# The last is a term or result outside double range: an overflow, or an
# underflow to a zero divisor.
POLES = (
    "pole: (gamma_1+i*delta_1)(gamma_2+i*delta_2) + |g_b|^2 (n_b+1) = 0",
    "pole: eps_a = 0 (probe 'a' carries no photons or no coupling)",
    "pole: delta_3 = 0 and gamma_3 = 0",
    "pole: eps_c = 0 (probe 'c' carries no photons or no coupling)",
    "pole: |g_b|^2 (n_b+1) = 0",
    "pole: a term is outside double range",
)
PUMP_PAIR, PROBE_A, THREE_PHOTON, PROBE_C, PUMP, OUT_OF_RANGE = range(1, len(POLES) + 1)


def pole_terms(config: SystemConfig, delta_a, delta_b, delta_c) -> tuple:
    """(value, *scales) of the denominator of each pole in ``POLES`` but the last.

    The single-photon detunings are Python floats or arrays.  The scales are
    the sizes of the terms its value sums; eps_a, eps_c and G_b have scale 0.
    """
    d1, d2, d3 = multi_photon_detunings(delta_a, delta_b, delta_c)
    g1, g2, g3 = config.gamma
    gb2n = pump_coupling(config)
    pair = (g1 + 1j * d1) * (g2 + 1j * d2)
    return ((pair + gb2n, abs(pair), gb2n), (probe_strength(config.mode_a), 0.0),
            (d3 - 1j * g3, abs(delta_a), abs(delta_b), abs(delta_c), g3),
            (probe_strength(config.mode_c), 0.0), (gb2n, 0.0))


def pole_code(terms: tuple, poles: tuple[int, ...], *values):
    """At each point, the first of ``poles`` whose term is ``near_pole``; else
    ``OUT_OF_RANGE`` where one of ``values`` or of the terms of ``poles`` is not
    finite; else 0.  An int for Python numbers, an int array for arrays."""
    # v * 0 is 0 where v is finite and NaN where it is not, so is their sum
    code = OUT_OF_RANGE * (sum(v * 0 for v in (*values, *(terms[k - 1][0] for k in poles))) != 0)
    for k in reversed(poles):  # so that the first pole is written last
        code = code + (k - code) * near_pole(*terms[k - 1])
    return code


def raise_at_pole(code) -> None:
    """PoleError with the message of pole ``code``, unless it is 0."""
    if code:
        raise PoleError(POLES[code - 1])


def check_poles(config: SystemConfig, *poles: int) -> None:
    """PoleError at the first of ``poles`` that the configuration sits on."""
    deltas = config.mode_a.delta, config.mode_b.delta, config.mode_c.delta
    raise_at_pole(pole_code(pole_terms(config, *deltas), poles))


def check_pump(gb: float, pair: float, tol: float) -> None:
    """Where r = eps ``pair`` / G_b > ``tol``: the ``PUMP`` pole at G_b = 0, else G_b and r."""
    if (size := sys.float_info.epsilon * pair) > tol * gb:
        raise_at_pole(PUMP if gb == 0 else 0)
        raise PoleError(f"pole: |g_b|^2 (n_b+1) = {gb:.3e} is near 0: "
                        f"r = eps |h11 h22| / G_b = {size / gb:.3e} > {tol:.0e}")


def check_finite(*values) -> None:
    """The ``OUT_OF_RANGE`` PoleError unless every value is a finite number."""
    if not all(map(cmath.isfinite, values)):
        raise_at_pole(OUT_OF_RANGE)


class in_double_range:
    """Reraise an ArithmeticError in the block as the ``OUT_OF_RANGE`` PoleError; a
    class, as ``contextlib.suppress`` is, costs a fifth of a generator-based manager."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, ArithmeticError):
            raise PoleError(POLES[OUT_OF_RANGE - 1]) from exc


def numpy_range():
    """numpy's half of ``in_double_range``, entered inside it: a new ``np.errstate``
    under which an overflow, an invalid result or a division by zero raises
    FloatingPointError, an ArithmeticError, where numpy would warn."""
    import numpy as np
    return np.errstate(over="raise", invalid="raise", divide="raise")


def split(config: SystemConfig) -> PerturbationSplit:
    """Split H into the pump block plus the probe couplings; PoleError past double range."""
    import numpy as np
    om_a, om_c = rabi_frequency(config.mode_a), rabi_frequency(config.mode_c)
    with in_double_range():  # abs of a finite complex past double range
        eps_a, eps_c = abs(om_a) / 2.0, abs(om_c) / 2.0
    d = config.detunings()
    check_finite(d.delta2, d.delta3)
    om_b = rabi_frequency(config.mode_b)
    g1, g2, g3 = config.gamma
    h0 = np.zeros((4, 4), dtype=complex)
    h0[1, 1] = d.delta1 - 1j * g1
    h0[2, 2] = d.delta2 - 1j * g2
    h0[3, 3] = d.delta3 - 1j * g3
    h0[1, 2], h0[2, 1] = om_b / 2.0, np.conj(om_b) / 2.0
    # unit phases taken directly from the Rabi frequencies; dividing by the
    # modulus loses less precision than a phase/exp round trip
    ua = om_a / abs(om_a) if om_a != 0 else 1.0 + 0.0j
    uc = om_c / abs(om_c) if om_c != 0 else 1.0 + 0.0j
    va = np.zeros((4, 4), dtype=complex)
    va[0, 1], va[1, 0] = ua.conjugate(), ua
    vc = np.zeros((4, 4), dtype=complex)
    vc[2, 3], vc[3, 2] = uc.conjugate(), uc
    return PerturbationSplit(h0=h0, va=va, vc=vc, eps_a=eps_a, eps_c=eps_c)


def manifold_members(seed: ManifoldIndex) -> list[ManifoldIndex]:
    """The four product states closed under the interaction, seeded from level 1.

    The prototype manifold absorbs one "a" photon to reach level 2 and emits
    one "c" photon from level 4, so the seed needs n_a >= 1 and n_c >= 1.
    """
    if seed.atomic_level != 1:
        raise ValueError(f"manifold seed must sit on atomic level 1, got {seed.atomic_level}")
    if not all(map(_is_nonnegative_int, seed[1:])):
        raise ValueError(f"photon numbers must be integers >= 0, got {seed!r}")
    if seed.n_a < 1:
        raise ValueError("n_a = 0: no 'a' photon to absorb on the 1->2 transition")
    if seed.n_c < 1:
        raise ValueError("n_c = 0: no 'c' photon to absorb on the 3->4 transition")
    na, nb, nc = seed.n_a, seed.n_b, seed.n_c
    return [
        seed,
        ManifoldIndex(2, na - 1, nb, nc),
        ManifoldIndex(3, na - 1, nb + 1, nc),
        ManifoldIndex(4, na - 1, nb + 1, nc - 1),
    ]
