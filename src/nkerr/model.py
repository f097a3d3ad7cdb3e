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
* ``split`` gives the matrix's nine numbers, a ``PerturbationSplit``, and
  ``PerturbationSplit.reconstruct`` alone writes them into a 4 x 4 array, one
  array of Python numbers: the matrix is ``split(config).reconstruct()``, and one
  at other probe strengths, each a number (nothing broadcasts), is that after
  ``_replace``.  ``split`` hands its last split to a call with the
  same configuration object (``is``: an equal one can differ in signed zeros).
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
* ``_finite`` judges each number a caller passes and returns the Python float
  or complex that the entry computes with, and ``_finite_array`` judges each
  array; no other module names ``isfinite``: a bool, a numpy array, a
  non-number or an int past double range is not a finite number, and a list or
  an object array is judged one element at a time.  A photon number
  (``_is_nonnegative_int``) is held as a Python int.
* Every immutable record holds no per-instance ``__dict__``, so none takes a
  weak reference.  Each one the package returns is a ``typing.NamedTuple``, so
  it unpacks, indexes and compares equal to a tuple of the same values;
  assigning a field raises AttributeError, and ``record._replace(...)`` is a
  changed copy.  A record that holds numpy arrays (``perturb.SeriesTable``,
  ``oracle.EigenSolution``, ``suscept.Sweep``) equals itself, but comparing it
  with another such record raises numpy's ValueError once the comparison
  reaches an array, and hashing it raises TypeError.  ``FieldMode`` and
  ``SystemConfig``, which check and coerce their fields in ``__post_init__``,
  are ``@dataclass(frozen=True, slots=True)`` instead: ``dataclasses.replace``
  runs the checks again, and copy and pickle give back the coerced fields.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Mapping, Set
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


def _finite(value, kind: type):
    """``kind(value)``, with ``kind`` float or complex, where ``value`` is a finite
    number; else None.  A bool (numpy's included), a numpy array of any shape, a
    non-number, an integer beyond double range or a signaling-NaN Decimal is not
    a finite number, nor, where a float is asked, a complex (numpy's included),
    whose real part ``math.isfinite`` would take."""
    isfinite = math.isfinite if kind is float else cmath.isfinite
    if type(value) is kind:  # the common case, which converts nothing
        return value if isfinite(value) else None
    if type(value) not in (float, complex) and (
            isinstance(value, bool) or _is_numpy(value, "bool_") or _is_numpy(value, "ndarray")
            or (kind is float and _is_numpy(value, "complexfloating"))):
        return None
    try:  # isfinite first: float and complex would parse a str
        return kind(value) if isfinite(value) else None
    except (TypeError, ValueError, OverflowError):  # ValueError: a signaling NaN Decimal
        return None


def _finite_array(value, dtype) -> np.ndarray | None:
    """``value`` as an array of ``dtype``, float or complex; None where it does not
    convert or is not finite.  A numpy array of numbers is judged by its dtype, so
    one of bools, strings or, for a float, complex numbers is refused; anything
    else, a list or an object array, element by element by ``_finite``."""
    import numpy as np
    try:
        if isinstance(value, np.ndarray) and value.dtype.kind != "O":
            if value.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
                return None
        elif any(_finite(v, dtype) is None for v in np.asarray(value, dtype=object).flat):
            return None
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return None
    return array if np.isfinite(array).all() else None


def _read_only(*arrays: np.ndarray) -> None:
    """Refuse writes into arrays that a memo hands to every caller: a series
    table's work vector and ``perturb``'s cached plans.  A dressed basis holds
    no array, only its pump blocks' numbers."""
    for array in arrays:
        array.setflags(write=False)


def _is_nonnegative_int(n) -> bool:
    """Whether ``n`` is an integer >= 0, numpy's included; a bool or a float is not.

    The one rule for a photon number and for a series order or state index.
    """
    return not isinstance(n, bool) and (isinstance(n, int) or _is_numpy(n, "integer")) and n >= 0


@dataclass(frozen=True, slots=True)
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
        if (g := _finite(self.g, complex)) is None or (delta := _finite(self.delta, float)) is None:
            raise ValueError(f"coupling and detuning must be finite numbers, got g={self.g!r}, "
                             f"delta={self.delta!r}")
        # Python numbers: a sum of detunings overflows to inf and a power of |g|
        # or a product with n raises OverflowError, where numpy's would warn first
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Full scenario: the three modes plus decay rates (gamma_1, gamma_2, gamma_3).

    gamma is read as three rates in the order it gives them, so a set or a
    mapping, which holds them in no order of the caller's, is refused."""

    mode_a: FieldMode
    mode_b: FieldMode
    mode_c: FieldMode
    gamma: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for mode, label in ((self.mode_a, "a"), (self.mode_b, "b"), (self.mode_c, "c")):
            if not isinstance(mode, FieldMode) or mode.label != label:
                raise ValueError(f"mode_{label} must be a FieldMode labelled {label!r}: {mode!r}")
        try:  # an iterator is read once; a set or a mapping has no order to read
            g1, g2, g3 = gamma = () if isinstance(self.gamma, (Set, Mapping)) else tuple(self.gamma)
        except (TypeError, ValueError):  # not iterable, or not three rates
            raise ValueError("gamma must hold exactly three decay rates") from None
        rates = (_finite(g1, float), _finite(g2, float), _finite(g3, float))
        if None in rates or min(rates) < 0:
            raise ValueError(f"decay rates must be finite and >= 0, got {gamma}")
        object.__setattr__(self, "gamma", rates)  # hashable, comparable

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


class PerturbationSplit(NamedTuple):
    """H = h0 + eps_a*va + eps_c*vc of the N-configuration, as the nine numbers it holds.

    h0 carries the complex detunings ``h11``, ``h22``, ``h33`` (delta_j -
    i*gamma_j) at (1, 1), (2, 2), (3, 3) and the pump pair ``x`` = Omega_b/2 at
    (1, 2) and ``y`` = conj(Omega_b)/2 at (2, 1); va carries the unit probe phase
    ``ua`` = Omega_a/|Omega_a| at (1, 0) and its conjugate at (0, 1), vc ``uc`` at
    (3, 2) and its conjugate at (2, 3), each 1 where its Rabi frequency is 0; the
    strengths are eps_a = |Omega_a|/2 and eps_c = |Omega_c|/2.  No other entry
    exists, so no reader checks a layout: ``perturb.dressed_basis`` refuses a
    split built by hand with a field that is not a finite Python int, float or
    complex, or with a zero ua or uc.  ``split`` makes each field a Python
    number.  A split hashes and compares by value, as the tuple of its numbers.
    """

    h11: complex
    h22: complex
    h33: complex
    x: complex
    y: complex
    ua: complex
    uc: complex
    eps_a: float
    eps_c: float

    def reconstruct(self) -> np.ndarray:
        """h0 + eps_a*va + eps_c*vc as a new 4 x 4 array, the one place the package
        writes the split's numbers into a matrix: one array of Python numbers.

        A probe entry is its one product, eps_a*conj(ua) at (0, 1), with a -0 part
        made +0, and an h0 entry adds the signed zeros the two probe terms add
        where va and vc are 0, so each entry has the bits of numpy's three-matrix
        sum.  At a complex strength, where numpy's loop may fuse a product's
        multiply and add, each product is rounded after each operation, on every
        host.  Each strength is taken as one Python complex, so a numpy float32
        is widened as the sum widened it, and nothing broadcasts."""
        import numpy as np
        a, c = complex(self.eps_a), complex(self.eps_c)
        h11, h22, h33, x, y = (v + a * 0j + c * 0j for v in self[:5])  # the sum's signed zeros
        return np.array([[0, a * self.ua.conjugate() + 0j, 0, 0], [a * self.ua + 0j, h11, x, 0],
                         [0, y, h22, c * self.uc.conjugate() + 0j], [0, 0, c * self.uc + 0j, h33]])


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


def probe_strength(omega: complex) -> float:
    """eps = |Omega|/2, the perturbation strength of a probe of Rabi frequency ``omega``."""
    with in_double_range():  # abs of a finite complex past double range
        return abs(omega) / 2.0


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
    the sizes of the terms its value sums; eps_a, eps_c and the pump coupling
    G_b = |g_b|^2 (n_b + 1) = |Omega_b|^2 / 4 have scale 0.
    """
    d1, d2, d3 = multi_photon_detunings(delta_a, delta_b, delta_c)
    g1, g2, g3 = config.gamma
    with in_double_range():
        gb2n = abs(config.mode_b.g) ** 2 * (config.mode_b.n + 1)
    check_finite(gb2n)
    pair = (g1 + 1j * d1) * (g2 + 1j * d2)
    return ((pair + gb2n, abs(pair), gb2n), (probe_strength(rabi_frequency(config.mode_a)), 0.0),
            (d3 - 1j * g3, abs(delta_a), abs(delta_b), abs(delta_c), g3),
            (probe_strength(rabi_frequency(config.mode_c)), 0.0), (gb2n, 0.0))


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


def check_poles(config: SystemConfig, *poles: int) -> tuple:
    """PoleError at the first of ``poles`` that the configuration sits on; else
    the ``pole_terms`` it checked, at the configuration's own detunings."""
    terms = pole_terms(config, config.mode_a.delta, config.mode_b.delta, config.mode_c.delta)
    raise_at_pole(pole_code(terms, poles))
    return terms


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


# The last configuration split and its split; object() is no configuration.
_SPLIT_MEMO: tuple = (object(), None)


def split(config: SystemConfig) -> PerturbationSplit:
    """Split H into the pump block plus the probe couplings; PoleError past double range.

    A call with the configuration object of the last call that returned gives
    back that split.
    """
    global _SPLIT_MEMO
    last, sp = _SPLIT_MEMO
    if last is config:
        return sp
    om_a, om_c = rabi_frequency(config.mode_a), rabi_frequency(config.mode_c)
    eps_a, eps_c = probe_strength(om_a), probe_strength(om_c)
    d = config.detunings()
    check_finite(d.delta2, d.delta3)
    om_b = rabi_frequency(config.mode_b)
    g1, g2, g3 = config.gamma
    # unit phases taken directly from the Rabi frequencies; dividing by the
    # modulus loses less precision than a phase/exp round trip
    ua = om_a / abs(om_a) if om_a != 0 else 1.0 + 0.0j
    uc = om_c / abs(om_c) if om_c != 0 else 1.0 + 0.0j
    sp = PerturbationSplit(d.delta1 - 1j * g1, d.delta2 - 1j * g2, d.delta3 - 1j * g3,
                           om_b / 2.0, om_b.conjugate() / 2.0, ua, uc, eps_a, eps_c)
    _SPLIT_MEMO = config, sp
    return sp
