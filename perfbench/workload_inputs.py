"""Seeded inputs for the benchmark workloads.

Every input is a plain scenario document in the CLI's JSON layout (see
``nkerr.cli``), drawn from ``numpy.random.default_rng([seed, lane])``.  This
module imports nothing from ``nkerr``: the well-conditioning filter below
belongs to the benchmark, so a change to the program cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

SWEEP_STEPS = 100_001
SWEEP_AXIS = "dc"
SERIES_CONFIGS = 1000

_SWEEP_LANE = 1
_SERIES_LANE = 2

# Filter margins.  The ground-state gaps must dwarf the probe strengths so
# that the order-8 series meets the series check tolerance: the first
# omitted term is at most about (eps / gap)**8 = 20**-8 relative, while the
# order-8 terms, up to 20**-6, stay large enough for the check to see.
_MIN_GAP = 0.25
_GAP_OVER_EPS = 20.0
_MIN_D2 = 0.12
_MIN_D3 = 0.25
_MIN_DEN = 0.3


def dumps(doc) -> str:
    """Canonical JSON text: the same document always gives the same bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _mode(g: complex, delta: float, n: int) -> dict:
    return {"g_re": float(g.real), "g_im": float(g.imag), "delta": float(delta), "n": int(n)}


def _draw(rng: np.random.Generator, lossy: bool) -> dict:
    def coupling(lo: float, hi: float) -> complex:
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))

    modes = {
        "a": _mode(coupling(0.006, 0.018), rng.uniform(-0.9, 0.9), rng.integers(1, 4)),
        "b": _mode(coupling(0.9, 1.3), rng.uniform(-0.9, 0.9), rng.integers(0, 2)),
        "c": _mode(coupling(0.006, 0.018), rng.uniform(-0.9, 0.9), rng.integers(1, 4)),
    }
    gamma = [float(g) for g in rng.uniform(0.05, 0.25, size=3)] if lossy else [0.0] * 3
    return {"modes": modes, "gamma": dict(zip(("g1", "g2", "g3"), gamma))}


def _coupling(mode: dict) -> complex:
    return complex(mode["g_re"], mode["g_im"])


def well_conditioned(doc: dict) -> bool:
    """True when a scenario sits well inside the perturbative regime.

    The pump block's dressed eigenvalues are taken from the closed-form
    2x2 roots; every pair of unperturbed eigenvalues must stay ``_MIN_GAP``
    apart, the ground level must sit ``_GAP_OVER_EPS`` probe strengths from
    the rest, and the closed-form denominators must stay clear of zero.
    """
    a, b, c = (doc["modes"][k] for k in ("a", "b", "c"))
    g1, g2, g3 = (doc["gamma"][k] for k in ("g1", "g2", "g3"))
    d1 = a["delta"]
    d2 = d1 - b["delta"]
    d3 = d2 + c["delta"]
    gb2n = abs(_coupling(b)) ** 2 * (b["n"] + 1)
    if abs(d2) < _MIN_D2 or abs(d3) < _MIN_D3:
        return False
    if abs((g1 + 1j * d1) * (g2 + 1j * d2) + gb2n) < _MIN_DEN:
        return False
    c1, c2, c3 = d1 - 1j * g1, d2 - 1j * g2, d3 - 1j * g3
    root = cmath.sqrt((c1 - c2) ** 2 + 4.0 * gb2n)
    lam = [0.0, 0.5 * ((c1 + c2) - root), 0.5 * ((c1 + c2) + root), c3]
    if any(abs(lam[i] - lam[j]) < _MIN_GAP for i in range(4) for j in range(i + 1, 4)):
        return False
    eps = max(abs(_coupling(a)) * math.sqrt(a["n"]), abs(_coupling(c)) * math.sqrt(c["n"]))
    return min(abs(x) for x in lam[1:]) >= _GAP_OVER_EPS * eps


def _conditioned(rng: np.random.Generator, lossy: bool) -> dict:
    while True:
        doc = _draw(rng, lossy)
        if well_conditioned(doc):
            return doc


def sweep_input(seed: int) -> tuple[dict, float, float]:
    """One lossy scenario plus the (lo, hi) range of the ``dc`` sweep.

    With gamma_3 > 0 and the filter's |D| margin no grid point is a pole, so
    every row of the sweep is valid.
    """
    rng = np.random.default_rng([seed, _SWEEP_LANE])
    doc = _conditioned(rng, lossy=True)
    lo = -float(rng.uniform(1.5, 2.5))
    hi = float(rng.uniform(1.5, 2.5))
    return doc, lo, hi


def series_inputs(seed: int, count: int = SERIES_CONFIGS) -> list[dict]:
    """``count`` scenarios alternating lossless and lossy, starting lossless."""
    rng = np.random.default_rng([seed, _SERIES_LANE])
    return [_conditioned(rng, lossy=bool(k % 2)) for k in range(count)]
