"""Acceptance checks runnable from both the command line and the test suite.

Each criterion takes the run's ``_Draws``: the user seed, from which it draws
its own deterministic random stream, and the draws two criteria share, made
once per run, so a given seed always produces a byte-identical report.
Every stream is the standard library's seeded Mersenne Twister
(``random.Random``, via ``_rng(seed, lane)``), so no run imports
``numpy.random``.  Checks that need random scenarios use couplings,
detunings and margins chosen to keep every draw well inside the perturbative
regime and away from the closed-form poles.  Criteria 2 and 5 read the same
3 Raman-resonant configurations.  Criteria 3 and 4 read the Taylor
coefficients of the exact ground eigenvalue of the same 20 lossless
configurations, computed by ``oracle.ground_series``, which solves the
tridiagonal continuant det(H - E) = 0 order by order on truncated power
series, exact to rounding relative to the terms each coefficient sums.
Criteria 7 and 8 compare the closed forms with the susceptibilities read per
photon off a ground-eigenvalue series (``suscept.chis_from_energy``), each
along its own route: criterion 7 the chi3_cross of
``suscept.susceptibility_point`` with the one off the exact continuant
(``oracle.ground_series``), criterion 8 all three off the
Rayleigh-Schrodinger table (``perturb.build_series``).  Criterion 10 checks
the parity of the exact (LAPACK) ground eigenvalue in each probe strength,
which a coupling the N-configuration forbids would break.

``_CRITERIA`` is the one table of (report name, function); a criterion's
number is its position + 1, and its function records into the ``_Checker``
it is handed.  ``run_all`` makes the draws once, then runs the criteria one
after another in this process, in criterion order, so a profiler or tracer
of the process sees every criterion.  A criterion reads only the draws and
its own random stream ``_rng(seed, lane)``, and changes nothing another
reads, so its result does not depend on what ran before it.  A criterion's
exception leaves ``run_all`` as it is raised, so the first in criterion
order is the one a run raises.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import tempfile
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import cli, effective, model, oracle, perturb, suscept
from .errors import DegeneracyError
from .model import FieldMode, PerturbationSplit, SystemConfig

__all__ = ["CheckResult", "make_config", "run_all", "report_lines", "run_report"]


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str = ""


class _Checker:
    """Collects pass/fail over many comparisons, keeping the first failure."""

    def __init__(self) -> None:
        self.passed = True
        self.detail = ""

    def expect(self, ok: bool, expected, actual, tolerance) -> None:
        if self.passed and not ok:
            self.passed = False
            self.detail = f"expected={expected!r}, actual={actual!r}, tolerance={tolerance!r}"

    def close(self, expected: complex, actual: complex, rel_tol: float) -> None:
        bound = rel_tol * max(abs(expected), abs(actual))
        self.expect(abs(expected - actual) <= bound, expected, actual, f"rel {rel_tol:g}")


def make_config(ga, gb, gc, na, nb, nc, da, db, dc, gamma=(0.0, 0.0, 0.0)) -> SystemConfig:
    """A configuration from couplings, photon numbers, single-photon detunings and decay rates."""
    return SystemConfig(FieldMode("a", ga, da, na), FieldMode("b", gb, db, nb),
                        FieldMode("c", gc, dc, nc), gamma)


def _reference_config() -> SystemConfig:
    return make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)


def _dressed_gaps_ok(cfg: SystemConfig, min_gap: float) -> bool:
    try:
        lam = perturb.dressed_basis(model.split(cfg)).eigenvalues
    except DegeneracyError:
        return False
    return all(abs(lam[i] - lam[j]) >= min_gap for i in range(4) for j in range(i + 1, 4))


def _well_conditioned(cfg: SystemConfig) -> bool:
    d1, d2, d3 = cfg.detunings()
    den, _, gb2n = model.pole_terms(cfg, cfg.mode_a.delta, cfg.mode_b.delta, cfg.mode_c.delta)[0]
    if not 0.4 <= abs(d1 * d2 - gb2n) <= 2.5 or abs(d2) < 0.12 or abs(d3) < 0.25 or abs(den) < 0.3:
        return False
    return _dressed_gaps_ok(cfg, 0.25)


def _random_config(rng: random.Random, lossy: bool) -> SystemConfig:
    """The first draw from ``rng``, a criterion's stream, that passes ``_well_conditioned``."""
    while True:
        ga = rng.uniform(0.006, 0.018)
        gc = rng.uniform(0.006, 0.018)
        gb = rng.uniform(0.9, 1.3)
        na = rng.randrange(1, 4)
        nb = rng.randrange(0, 2)
        nc = rng.randrange(1, 4)
        da = rng.uniform(-0.9, 0.9)
        db = rng.uniform(-0.9, 0.9)
        dc = rng.uniform(-0.9, 0.9)
        gamma = tuple(rng.uniform(0.05, 0.25) for _ in range(3)) if lossy else (0.0, 0.0, 0.0)
        cfg = make_config(ga, gb, gc, na, nb, nc, da, db, dc, gamma)
        if _well_conditioned(cfg):
            return cfg


def _rng(seed: int, lane: int) -> random.Random:
    """The random stream of one lane of a run: ``random.Random`` seeded by "seed/lane".

    ``random`` is loaded in every ``validate`` process already (``cli``
    imports ``tempfile``, which imports it), so the draws cost no import,
    where ``numpy.random`` would add 13-15 ms and ~6 MB.  A str seed is
    hashed with SHA-512, not ``hash()``, so each lane's string gives its own
    stream, independent of ``PYTHONHASHSEED``.
    """
    return random.Random(f"{seed}/{lane}")


# -- criteria ---------------------------------------------------------------

def _criterion_1(draws: _Draws, chk: _Checker) -> None:
    residuals = []
    for scale in (1.0, 0.5):
        scaled = make_config(0.01 * scale, 1.0, 0.01 * scale, 1, 0, 1, 0.3, 0.1, 0.5)
        sp = model.split(scaled)
        table = perturb.build_series(sp, 1, 4)
        approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
        exact = oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
        residuals.append(abs(approx - exact))
    chk.expect(residuals[0] <= 1e-9, "residual <= 1e-9", residuals[0], 1e-9)
    ratio = residuals[0] / residuals[1]
    chk.expect(32.0 <= ratio <= 128.0, "ratio in [32, 128]", ratio, "[32, 128]")


def _resonant_configs(seed: int) -> list[SystemConfig]:
    rng = _rng(seed, 2)
    out = []
    while len(out) < 3:
        cfg = _random_config(rng, lossy=False)
        da = cfg.mode_a.delta
        cfg = replace(cfg, mode_b=replace(cfg.mode_b, delta=da))  # delta_2 exactly 0
        d1, d2, d3 = cfg.detunings()
        if abs(d3) >= 0.25 and _dressed_gaps_ok(cfg, 0.25):
            out.append(cfg)
    return out


def _criterion_2(draws: _Draws, chk: _Checker) -> None:
    for cfg in draws.resonant:
        co = effective.coefficients(cfg)
        chk.expect(co.linear == 0.0, 0.0, co.linear, "exact")
        chk.expect(co.self_kerr == 0.0, 0.0, co.self_kerr, "exact")
        sp = model.split(cfg)
        table = perturb.build_series(sp, 1, 4)
        folded = sp.eps_a**2 * table.E[2, 0] + sp.eps_a**4 * table.E[4, 0]
        chk.expect(abs(folded) < 1e-13, "|folded (2,0)+(4,0)| < 1e-13", abs(folded), 1e-13)


_OracleDraws = list[tuple[SystemConfig, PerturbationSplit, np.ndarray]]


def _oracle_draws(seed: int) -> _OracleDraws:
    """Criteria 3 and 4's 20 lossless draws, each with its exact order-4 ground series."""
    rng = _rng(seed, 34)
    draws = []
    for _ in range(20):
        cfg = _random_config(rng, lossy=False)
        sp = model.split(cfg)
        draws.append((cfg, sp, oracle.ground_series(sp, 4)))
    return draws


class _Draws(NamedTuple):
    """A run's seed and the draws that two criteria read, each made once per run."""

    seed: int
    resonant: list[SystemConfig]  # criteria 2 and 5
    oracle: _OracleDraws  # criteria 3 and 4


def _criterion_3(draws: _Draws, chk: _Checker) -> None:
    for cfg, sp, series in draws.oracle:
        folded = sp.eps_a**2 * sp.eps_c**2 * complex(series[2, 2])
        expected = effective.coefficients(cfg).cross_kerr * cfg.mode_a.n * cfg.mode_c.n
        chk.close(expected, folded, 1e-11)


def _criterion_4(draws: _Draws, chk: _Checker) -> None:
    for cfg, sp, series in draws.oracle:
        folded = sp.eps_a**4 * complex(series[4, 0])
        expected = effective.coefficients(cfg).self_kerr * cfg.mode_a.n**2
        chk.close(expected, folded, 1e-11)
        # the |g_b|^4 variant must be cleanly rejected whenever |g_a| != |g_b|
        wrong = expected * abs(cfg.mode_b.g) ** 4 / abs(cfg.mode_a.g) ** 4
        rel = abs(folded - wrong) / max(abs(folded), abs(wrong))
        chk.expect(rel > 1e-4, "variant rejected by > 1e-4", rel, "> 1e-4")


def _criterion_5(draws: _Draws, chk: _Checker) -> None:
    for cfg in draws.resonant:
        full = effective.coefficients(cfg).cross_kerr
        pure = effective.pure_cross_kerr(cfg)
        chk.close(full, pure, 1e-12)


def _criterion_6(draws: _Draws, chk: _Checker) -> None:
    # at t = pi/(4|K|) on the reference, L t is a multiple of pi and n_a = 1;
    # the second scenario's phase also sees the sign of L and S's n_a**2
    second = make_config(0.01, 1.0, 0.01, 2, 0, 3, 0.3, 0.1, 0.5)
    for cfg, fraction in ((_reference_config(), 1.0), (second, 0.37)):
        t = fraction * (math.pi / 4.0) / abs(effective.coefficients(cfg).cross_kerr)
        _, _, diff, bound = oracle.phase_comparison(cfg, t)
        # the difference is wrapped to [-pi, pi), so a bound of pi or more rules out nothing
        chk.expect(bound < math.pi, "leakage bound < pi", bound, "pi")
        chk.expect(abs(diff) <= bound, f"|phase difference| <= {bound:g}", abs(diff), bound)


def _criterion_7(draws: _Draws, chk: _Checker) -> None:
    rng = _rng(draws.seed, 7)
    for _ in range(20):
        cfg = _random_config(rng, lossy=True)
        bridged = suscept.chis_from_energy(cfg, oracle.ground_series(model.split(cfg), 4))
        chk.close(suscept.susceptibility_point(cfg).chi3_cross, bridged.chi3_cross, 1e-12)


def _criterion_8(draws: _Draws, chk: _Checker) -> None:
    rng = _rng(draws.seed, 8)
    for k in range(20):  # 10 lossless draws, then 10 lossy
        cfg = _random_config(rng, lossy=k >= 10)
        bridged = suscept.chis_from_energy(cfg, perturb.build_series(model.split(cfg), 1, 4).E)
        for closed, chi in zip(suscept.susceptibility_point(cfg), bridged):
            chk.close(closed, chi, 1e-12)


def _criterion_9(draws: _Draws, chk: _Checker) -> None:
    gamma3 = 0.4
    cfg = make_config(0.05, 1.0, 0.05, 1, 0, 1, 0.0, 0.0, 0.0, gamma=(0.0, 0.0, gamma3))
    s = suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-2.0, 2.0, 101))
    chk.expect(len(s.value) == 101, 101, len(s.value), "grid size")
    chk.expect(not s.pole.any(), "all rows valid", int(np.count_nonzero(s.pole == 0)), 101)
    re, im, vals = s.chi3_cross.real, s.chi3_cross.imag, s.value
    for k, d3 in enumerate(vals):
        if abs(d3) < 1e-9:
            continue
        ratio = re[k] / im[k]
        chk.expect(abs(ratio - d3 / gamma3) <= 1e-12 * max(1.0, abs(d3 / gamma3)),
                   d3 / gamma3, ratio, "1e-12")
    mid = len(vals) // 2
    chk.expect(int(np.argmax(im)) == mid, mid, int(np.argmax(im)), "Im peak at delta_3=0")
    sym = np.max(np.abs(im - im[::-1]))
    chk.expect(sym <= 1e-12 * np.max(np.abs(im)), "Im even", sym, "1e-12 relative")
    odd = np.max(np.abs(re + re[::-1]))
    chk.expect(odd <= 1e-12 * np.max(np.abs(re)), "Re odd", odd, "1e-12 relative")
    step = vals[1] - vals[0]
    chk.expect(abs(vals[int(np.argmax(re))] - gamma3) <= step + 1e-12,
               gamma3, vals[int(np.argmax(re))], "one grid step")
    chk.expect(abs(vals[int(np.argmin(re))] + gamma3) <= step + 1e-12,
               -gamma3, vals[int(np.argmin(re))], "one grid step")


def _criterion_10(draws: _Draws, chk: _Checker) -> None:
    rng = _rng(draws.seed, 10)
    for _ in range(20):
        sp = model.split(_random_config(rng, lossy=False))
        energy = oracle.ground_eigenvalue_function(sp)
        x, y = sp.eps_a, sp.eps_c
        e = energy(x, y)
        for flipped in (energy(-x, y), energy(x, -y)):
            chk.expect(abs(e - flipped) <= 1e-14, e, flipped, 1e-14)


def _criterion_11(draws: _Draws, chk: _Checker) -> None:
    scenario = {
        "modes": {
            "a": {"g_re": 0.05, "g_im": 0.0, "delta": 0.0, "n": 1},
            "b": {"g_re": 1.0, "g_im": 0.0, "delta": 0.0, "n": 0},
            "c": {"g_re": 0.05, "g_im": 0.0, "delta": 0.0, "n": 1},
        },
        "gamma": {"g1": 0.0, "g2": 0.0, "g3": 0.4},
    }
    with tempfile.TemporaryDirectory() as tmp:
        spath = os.path.join(tmp, "scenario.json")
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        outputs = []
        for k in range(2):
            opath = os.path.join(tmp, f"sweep{k}.csv")
            code = cli.main(["sweep", spath, "--axis", "dc", "--lo", "-2", "--hi", "2",
                             "--steps", "41", "--out", opath], stdout=io.StringIO())
            chk.expect(code == 0, 0, code, "exit code")
            with open(opath, "rb") as fh:
                outputs.append(fh.read())
        chk.expect(outputs[0] == outputs[1], "byte-identical sweeps", "differs", "exact")
        text = outputs[0].decode("utf-8")
        lines = text.split("\n")
        header = "axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid"
        chk.expect(lines[0] == header, header, lines[0], "exact header")
        chk.expect(text.endswith("\n"), "trailing newline", repr(text[-1:]), "exact")
        chk.expect(len(lines) == 43, 43, len(lines), "41 rows + header + trailing newline")
        cfg = cli.scenario_config(scenario)
        s = suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-2.0, 2.0, 41))
        columns = (s.value, s.chi1.real, s.chi1.imag, s.chi3_self.real, s.chi3_self.imag,
                   s.chi3_cross.real, s.chi3_cross.imag)
        for k, line in enumerate(lines[1:42]):  # as text, so the sign of a zero counts
            row = ",".join(["dc", *(cli._fmt(column[k]) for column in columns), "1"])
            chk.expect(line == row, row, line, "exact row")


_CRITERIA: list[tuple[str, Callable[[_Draws, _Checker], None]]] = [
    ("series-vs-exact", _criterion_1),
    ("dark-state cancellation", _criterion_2),
    ("cross-Kerr closed form vs FD oracle", _criterion_3),
    ("self-Kerr |g_a|^4 form adjudicated", _criterion_4),
    ("pure cross-Kerr consistency", _criterion_5),
    ("phase evolution vs propagation", _criterion_6),
    ("chi3 symmetry identity", _criterion_7),
    ("chi closed forms vs coherence oracle", _criterion_8),
    ("cross-Kerr absorption structure", _criterion_9),
    ("parity of corrections", _criterion_10),
    ("CLI determinism and CSV format", _criterion_11),
]


def run_all(seed: int) -> list[CheckResult]:
    """Every criterion's result, in criterion order, run in this process.

    Raises the first exception a criterion raises, and ValueError for a
    seed that is not an integer >= 0 (a bool or a float is not one).
    """
    if not model._is_nonnegative_int(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    draws = _Draws(seed, _resonant_configs(seed), _oracle_draws(seed))
    results = []
    for number, (name, criterion) in enumerate(_CRITERIA, 1):
        chk = _Checker()
        criterion(draws, chk)
        results.append(CheckResult(number, name, chk.passed, chk.detail))
    return results


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.number:02d} {r.name}: {status}")
        if not r.passed and r.detail:
            lines.append(f"  first failure: {r.detail}")
    return lines


def run_report(seed: int) -> tuple[str, bool]:
    results = run_all(seed)
    ok = all(r.passed for r in results)
    lines = report_lines(results)
    lines.append("all criteria passed" if ok else "FAILURES present")
    return "\n".join(lines) + "\n", ok
