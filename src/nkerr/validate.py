"""Acceptance checks runnable from both the command line and the test suite.

Each criterion draws its own deterministic random stream from the user seed,
so a given seed always produces a byte-identical report.  Checks that need
random scenarios use couplings, detunings and margins chosen to keep every
draw well inside the perturbative regime and away from the closed-form
poles.  Criteria 3 and 4 read Taylor coefficients of the exact ground
eigenvalue (Newton's method at all nodes at once) from one Cauchy-integral
extraction per configuration (24 x 24 nodes, radius ``oracle.extraction_radius``),
whose self-check raises ``StepError`` on a bad radius; both read the same 20
extractions, made once per seed.  Criteria 7 and 8 read the coherence
coefficients straight from the series arrays
(``suscept.coherence_coefficients``): criterion 7 reads chi3_cross off the
3<->4 coherence rho43, criterion 8 off rho21, and both compare it with the
closed form.
"""

from __future__ import annotations

import functools
import io
import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import effective, model, oracle, perturb, suscept
from .errors import DegeneracyError
from .model import FieldMode, SystemConfig

__all__ = ["CheckResult", "make_config", "phase_comparison", "run_all", "report_lines",
           "run_report"]


@dataclass(frozen=True)
class CheckResult:
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

    def close(self, expected: complex, actual: complex, rel_tol: float,
              floor: float = 0.0) -> None:
        bound = rel_tol * max(abs(expected), abs(actual), floor)
        self.expect(abs(expected - actual) <= bound, expected, actual,
                    f"rel {rel_tol:g}" + (f" floor {floor:g}" if floor else ""))


def make_config(ga, gb, gc, na, nb, nc, da, db, dc, gamma=(0.0, 0.0, 0.0)) -> SystemConfig:
    """A configuration from couplings, photon numbers, single-photon detunings and decay rates."""
    return SystemConfig(
        FieldMode("a", ga, da, na),
        FieldMode("b", gb, db, nb),
        FieldMode("c", gc, dc, nc),
        tuple(gamma),
    )


def _reference_config() -> SystemConfig:
    return make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)


def _dressed_gaps_ok(cfg: SystemConfig, min_gap: float) -> bool:
    try:
        lam = perturb.dressed_basis(model.split(cfg).h0).eigenvalues
    except DegeneracyError:
        return False
    return all(abs(lam[i] - lam[j]) >= min_gap
               for i in range(4) for j in range(i + 1, 4))


def _well_conditioned(cfg: SystemConfig) -> bool:
    d1, d2, d3 = cfg.detunings()
    gb2n = model.pump_coupling(cfg)
    dk = d1 * d2 - gb2n
    if not 0.4 <= abs(dk) <= 2.5:
        return False
    if abs(d2) < 0.12 or abs(d3) < 0.25:
        return False
    den = abs((cfg.gamma[0] + 1j * d1) * (cfg.gamma[1] + 1j * d2) + gb2n)
    if den < 0.3:
        return False
    return _dressed_gaps_ok(cfg, 0.25)


def _random_config(rng: np.random.Generator, lossy: bool) -> SystemConfig:
    while True:
        ga = rng.uniform(0.006, 0.018)
        gc = rng.uniform(0.006, 0.018)
        gb = rng.uniform(0.9, 1.3)
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(0, 2))
        nc = int(rng.integers(1, 4))
        da = rng.uniform(-0.9, 0.9)
        db = rng.uniform(-0.9, 0.9)
        dc = rng.uniform(-0.9, 0.9)
        gamma = (0.0, 0.0, 0.0)
        if lossy:
            gamma = tuple(float(g) for g in rng.uniform(0.05, 0.25, size=3))
        cfg = make_config(ga, gb, gc, na, nb, nc, da, db, dc, gamma)
        if _well_conditioned(cfg):
            return cfg


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


def phase_comparison(cfg: SystemConfig, t: float) -> tuple[float, float, float, float]:
    """Effective and propagated phase of the relaxed ground state at time t.

    Returns the effective phase -(L n_a + S n_a^2 + K n_a n_c) t, the phase
    of the level-1 amplitude under exact propagation, their difference
    wrapped to [-pi, pi) and its leakage bound 10 eps^2.  Raises
    DegeneracyError unless the unperturbed spectrum is cleanly gapped.
    """
    co = effective.coefficients(cfg)
    perturb.dressed_basis(model.split(cfg).h0)
    n_a, n_c = cfg.mode_a.n, cfg.mode_c.n
    eff_phase = -(co.linear * n_a + co.self_kerr * n_a**2 + co.cross_kerr * n_a * n_c) * t
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    amp = complex(oracle.propagate(model.build_hamiltonian(cfg), psi0, t)[0])
    oracle_phase = math.atan2(amp.imag, amp.real)
    diff = (oracle_phase - eff_phase + math.pi) % (2.0 * math.pi) - math.pi
    return eff_phase, oracle_phase, diff, 10.0 * max(model.perturbation_strengths(cfg)) ** 2


# -- criteria ---------------------------------------------------------------

def _criterion_1(seed: int) -> CheckResult:
    chk = _Checker()
    cfg = _reference_config()
    residuals = []
    for scale in (1.0, 0.5):
        scaled = make_config(0.01 * scale, 1.0, 0.01 * scale, 1, 0, 1, 0.3, 0.1, 0.5)
        sp = model.split(scaled)
        table = perturb.build_series(sp, 1, 4)
        approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, 4)
        exact = oracle.track_ground(scaled, 1.0)
        residuals.append(abs(approx - exact))
    chk.expect(residuals[0] <= 1e-9, "residual <= 1e-9", residuals[0], 1e-9)
    ratio = residuals[0] / residuals[1]
    chk.expect(32.0 <= ratio <= 128.0, "ratio in [32, 128]", ratio, "[32, 128]")
    return CheckResult(1, "series-vs-exact", chk.passed, chk.detail)


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


def _criterion_2(seed: int) -> CheckResult:
    chk = _Checker()
    for cfg in _resonant_configs(seed):
        co = effective.coefficients(cfg)
        chk.expect(co.linear == 0.0, 0.0, co.linear, "exact")
        chk.expect(co.self_kerr == 0.0, 0.0, co.self_kerr, "exact")
        sp = model.split(cfg)
        table = perturb.build_series(sp, 1, 4)
        folded = sp.eps_a**2 * table.E[0, 2, 0] + sp.eps_a**4 * table.E[0, 4, 0]
        chk.expect(abs(folded) < 1e-13, "|folded (2,0)+(4,0)| < 1e-13", abs(folded), 1e-13)
    return CheckResult(2, "dark-state cancellation", chk.passed, chk.detail)


@functools.lru_cache(maxsize=1)
def _ground_extractions(seed: int) -> tuple[tuple[SystemConfig, model.PerturbationSplit,
                                                  np.ndarray], ...]:
    """(config, split, Taylor coefficients of the exact ground eigenvalue) on 20
    lossless configurations; criteria 3 and 4 read the same extractions."""
    rng = _rng(seed, 34)
    out = []
    for _ in range(20):
        cfg = _random_config(rng, lossy=False)
        sp = model.split(cfg)
        out.append((cfg, sp, oracle.taylor_coefficients(oracle.ground_eigenvalue_newton(sp),
                                                        oracle.extraction_radius(sp))))
    return tuple(out)


def _criterion_3(seed: int) -> CheckResult:
    chk = _Checker()
    for cfg, sp, c in _ground_extractions(seed):
        folded = sp.eps_a**2 * sp.eps_c**2 * complex(c[2, 2])
        expected = effective.coefficients(cfg).cross_kerr * cfg.mode_a.n * cfg.mode_c.n
        chk.close(expected, folded, 1e-5)
    return CheckResult(3, "cross-Kerr closed form vs FD oracle", chk.passed, chk.detail)


def _criterion_4(seed: int) -> CheckResult:
    chk = _Checker()
    for cfg, sp, c in _ground_extractions(seed):
        folded = sp.eps_a**4 * complex(c[4, 0])
        expected = effective.coefficients(cfg).self_kerr * cfg.mode_a.n**2
        chk.close(expected, folded, 1e-5)
        # the |g_b|^4 variant must be cleanly rejected whenever |g_a| != |g_b|
        d1, d2, d3 = cfg.detunings()
        gb2n = model.pump_coupling(cfg)
        dk = d1 * d2 - gb2n
        s_variant = d2 * (d2**2 + gb2n) * abs(cfg.mode_b.g) ** 4 / dk**3
        wrong = s_variant * cfg.mode_a.n**2
        rel = abs(folded - wrong) / max(abs(folded), abs(wrong))
        chk.expect(rel > 10 * 1e-5, "variant rejected by > 10x tolerance", rel, "> 1e-4")
    return CheckResult(4, "self-Kerr |g_a|^4 form adjudicated", chk.passed, chk.detail)


def _criterion_5(seed: int) -> CheckResult:
    chk = _Checker()
    for cfg in _resonant_configs(seed):
        full = effective.coefficients(cfg).cross_kerr
        pure = effective.pure_cross_kerr(cfg)
        chk.close(full, pure, 1e-12)
    return CheckResult(5, "pure cross-Kerr consistency", chk.passed, chk.detail)


def _criterion_6(seed: int) -> CheckResult:
    chk = _Checker()
    cfg = _reference_config()
    t = (math.pi / 4.0) / abs(effective.coefficients(cfg).cross_kerr)
    _, _, diff, bound = phase_comparison(cfg, t)
    chk.expect(abs(diff) <= bound, f"|phase difference| <= {bound:g}", abs(diff), bound)
    return CheckResult(6, "phase evolution vs propagation", chk.passed, chk.detail)


def _criterion_7(seed: int) -> CheckResult:
    chk = _Checker()
    rng = _rng(seed, 7)
    for _ in range(20):
        cfg = _random_config(rng, lossy=True)
        ea, ec = model.perturbation_strengths(cfg)
        t = suscept.coherence_coefficients(cfg, 3, "rho43")
        seen_from_c = -abs(cfg.mode_a.g) ** 2 * abs(cfg.mode_c.g) ** 2 * complex(t[2, 1])
        chk.close(suscept.chi3_cross(cfg), seen_from_c / (6 * ea**2 * ec**2), 1e-9)
    return CheckResult(7, "chi3 symmetry identity", chk.passed, chk.detail)


def _criterion_8(seed: int) -> CheckResult:
    chk = _Checker()
    rng = _rng(seed, 8)
    configs = [_random_config(rng, lossy=False) for _ in range(10)]
    configs += [_random_config(rng, lossy=True) for _ in range(10)]
    for cfg in configs:
        ea, ec = model.perturbation_strengths(cfg)
        ga2 = abs(cfg.mode_a.g) ** 2
        gc2 = abs(cfg.mode_c.g) ** 2
        t = suscept.coherence_coefficients(cfg, order=3)
        t10, t30, t12 = complex(t[1, 0]), complex(t[3, 0]), complex(t[1, 2])
        chk.close(suscept.chi1(cfg), -ga2 * t10 / ea**2, 1e-6)
        chk.close(suscept.chi3_self(cfg), -ga2**2 * t30 / (3 * ea**4), 1e-6)
        chk.close(suscept.chi3_cross(cfg), -ga2 * gc2 * t12 / (6 * ea**2 * ec**2), 1e-6)
    return CheckResult(8, "chi closed forms vs coherence oracle", chk.passed, chk.detail)


def _criterion_9(seed: int) -> CheckResult:
    chk = _Checker()
    gamma3 = 0.4
    cfg = make_config(0.05, 1.0, 0.05, 1, 0, 1, 0.0, 0.0, 0.0,
                      gamma=(0.0, 0.0, gamma3))
    s = suscept.sweep(cfg, "dc", -2.0, 2.0, 101)
    chk.expect(len(s) == 101, 101, len(s), "grid size")
    chk.expect(bool(s.valid.all()), "all rows valid", int(s.valid.sum()), 101)
    re, im, vals = s.chi3_cross.real, s.chi3_cross.imag, s.value
    for k, d3 in enumerate(vals):
        if abs(d3) < 1e-9:
            continue
        ratio = re[k] / im[k]
        chk.expect(abs(ratio - d3 / gamma3) <= 1e-12 * max(1.0, abs(d3 / gamma3)),
                   d3 / gamma3, ratio, "1e-12")
    mid = len(s) // 2
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
    return CheckResult(9, "cross-Kerr absorption structure", chk.passed, chk.detail)


def _criterion_10(seed: int) -> CheckResult:
    chk = _Checker()
    rng = _rng(seed, 10)
    for _ in range(20):
        cfg = _random_config(rng, lossy=False)
        energies = perturb.build_series(model.split(cfg), 1, 4).E[0]
        for (p, q), value in np.ndenumerate(energies):
            if p % 2 or q % 2:
                chk.expect(abs(value) < 1e-14, 0.0, complex(value), 1e-14)
    return CheckResult(10, "parity of corrections", chk.passed, chk.detail)


def _criterion_11(seed: int) -> CheckResult:
    from . import cli  # local import: cli imports this module

    chk = _Checker()
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
        import json

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
        s = suscept.sweep(cfg, "dc", -2.0, 2.0, 41)
        columns = zip(s.value.tolist(), s.chi1.real.tolist(), s.chi3_cross.imag.tolist())
        for line, (value, chi1_re, chi3c_im) in zip(lines[1:42], columns):
            fields = line.split(",")
            chk.expect(fields[0] == "dc", "dc", fields[0], "axis column")
            chk.expect(float(fields[1]) == value, value, fields[1], "round-trip")
            chk.expect(float(fields[2]) == chi1_re, chi1_re, fields[2], "round-trip")
            chk.expect(float(fields[7]) == chi3c_im, chi3c_im, fields[7], "round-trip")
            chk.expect(fields[8] == "1", "1", fields[8], "valid flag")
    return CheckResult(11, "CLI determinism and CSV format", chk.passed, chk.detail)


_CRITERIA: list[Callable[[int], CheckResult]] = [
    _criterion_1, _criterion_2, _criterion_3, _criterion_4, _criterion_5,
    _criterion_6, _criterion_7, _criterion_8, _criterion_9, _criterion_10,
    _criterion_11,
]


def run_all(seed: int) -> list[CheckResult]:
    return [crit(seed) for crit in _CRITERIA]


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
