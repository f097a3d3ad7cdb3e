"""Acceptance gate: every criterion at its stated tolerance, seed 0.

Each test prints its own PASS/FAIL line (run with ``pytest -s`` to see them
inline); the same checks back the ``nkerr validate`` command.
"""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nkerr import cli, effective, model, suscept, validate
from nkerr.errors import DegeneracyError, PoleError

from conftest import numpy_draws

TRUE_WRITER = cli._chunk_text

RESULTS = {r.number: r for r in validate.run_all(seed=0)}


@pytest.mark.parametrize("number", sorted(RESULTS))
def test_criterion(number):
    result = RESULTS[number]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:02d} {result.name}: {status}")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"


@pytest.mark.parametrize("field, number", [("cross_kerr", 3), ("self_kerr", 4)])
def test_criterion_catches_planted_coefficient_error(monkeypatch, field, number):
    # a relative error of 1e-7 in one closed form, 1e4 times the criterion's gate
    true_coefficients = effective.coefficients

    def planted(cfg):
        co = true_coefficients(cfg)
        return co._replace(**{field: getattr(co, field) * (1 + 1e-7)})

    monkeypatch.setattr(effective, "coefficients", planted)
    result = {r.number: r for r in validate.run_all(seed=0)}[number]
    assert not result.passed, f"criterion {number} missed a 1e-7 error in {field}"


def _criterion_result(number):
    chk = validate._Checker()
    validate._CRITERIA[number - 1][1](validate._Draws(0, [], []), chk)
    return chk


def test_criterion_7_catches_a_planted_cross_kerr_error(monkeypatch):
    # 1e-10 relative, 100 times the criterion's gate, against chi3_cross read off the
    # exact continuant
    true_point = suscept.susceptibility_point

    def planted(cfg):
        chis = true_point(cfg)
        return chis._replace(chi3_cross=chis.chi3_cross * (1 + 1e-10))

    monkeypatch.setattr(suscept, "susceptibility_point", planted)
    chk = _criterion_result(7)
    assert not chk.passed
    assert chk.detail.endswith("tolerance='rel 1e-12'")


@pytest.mark.parametrize("field", suscept.SusceptibilityPoint._fields)
def test_criterion_8_catches_a_planted_susceptibility_error(monkeypatch, field):
    # 1e-10 relative, 100 times the criterion's gate, against the chis read off the
    # Rayleigh-Schrodinger table
    true_point = suscept.susceptibility_point

    def planted(cfg):
        chis = true_point(cfg)
        return chis._replace(**{field: getattr(chis, field) * (1 + 1e-10)})

    monkeypatch.setattr(suscept, "susceptibility_point", planted)
    chk = _criterion_result(8)
    assert not chk.passed
    assert chk.detail.endswith("tolerance='rel 1e-12'")


def test_criterion_10_catches_planted_forbidden_coupling(monkeypatch):
    # probe a coupling levels 1 and 4 directly, which the N-configuration forbids:
    # no split can hold it, so it is planted as va[0, 3] = va[3, 0] = 0.5 in the
    # matrix each split writes
    true_reconstruct = model.PerturbationSplit.reconstruct

    def planted(sp):
        h = true_reconstruct(sp)
        h[0, 3] = h[3, 0] = 0.5 * sp.eps_a
        return h

    monkeypatch.setattr(model.PerturbationSplit, "reconstruct", planted)
    chk = validate._Checker()
    validate._criterion_10(validate._Draws(0, [], []), chk)
    assert not chk.passed


def test_criterion_6_refuses_a_leakage_bound_of_pi_or_more(monkeypatch):
    # the corpus's strong probe has eps = 1, so its bound 10 is wider than any
    # wrapped phase difference, which lies in [-pi, pi)
    strong = cli.load_scenario(os.path.join(os.path.dirname(__file__), "gated", "strong.json"))
    monkeypatch.setattr(validate, "_reference_config", lambda: strong)
    chk = validate._Checker()
    validate._criterion_6(validate._Draws(0, [], []), chk)
    assert not chk.passed
    assert chk.detail.endswith("tolerance='pi'"), chk.detail


def _writer_sampling_constancy_at_the_ends(result):
    columns = (result.value, result.chi1.real, result.chi1.imag, result.chi3_self.real,
               result.chi3_self.imag, result.chi3_cross.real, result.chi3_cross.imag)
    ends = [column[[0, -1]].view(np.int64) for column in columns]
    rows = []
    for k in range(len(result.value)):
        fields = (cli._fmt(c[0] if e[0] == e[1] else c[k]) for c, e in zip(columns, ends))
        rows.append(",".join([result.axis, *fields, "1\n"]))
    return "".join(rows)


def _writer_dropping_the_sign_of_zero(result):
    return TRUE_WRITER(result).replace(",-0,", ",0,")


# chi3c_im is even in delta_3, so its first and last rows on criterion 11's
# symmetric grid have the same bits; chi3c_re is -0 at delta_3 = 0
@pytest.mark.parametrize("writer", [_writer_sampling_constancy_at_the_ends,
                                    _writer_dropping_the_sign_of_zero])
def test_criterion_11_catches_a_planted_row_writer(monkeypatch, writer):
    monkeypatch.setattr(cli, "_chunk_text", writer)
    chk = validate._Checker()
    validate._criterion_11(validate._Draws(0, [], []), chk)
    assert not chk.passed
    assert chk.detail.endswith("tolerance='exact row'"), chk.detail


def test_validate_report_text_seed_zero():
    assert validate.run_report(0)[0] == (
        "criterion 01 series-vs-exact: PASS\n"
        "criterion 02 dark-state cancellation: PASS\n"
        "criterion 03 cross-Kerr closed form vs FD oracle: PASS\n"
        "criterion 04 self-Kerr |g_a|^4 form adjudicated: PASS\n"
        "criterion 05 pure cross-Kerr consistency: PASS\n"
        "criterion 06 phase evolution vs propagation: PASS\n"
        "criterion 07 chi3 symmetry identity: PASS\n"
        "criterion 08 chi closed forms vs coherence oracle: PASS\n"
        "criterion 09 cross-Kerr absorption structure: PASS\n"
        "criterion 10 parity of corrections: PASS\n"
        "criterion 11 CLI determinism and CSV format: PASS\n"
        "all criteria passed\n")


def test_criterion_streams_give_pinned_draws():
    # random.Random's stream for a str seed is fixed by the Python version;
    # a version that changes it changes every validate scenario
    assert validate._random_config(validate._rng(0, 7), lossy=True) == validate.make_config(
        0.017821755813870514, 1.030375330499513, 0.008147365876357207, 3, 1, 1,
        -0.5634764429390793, 0.10453731523118803, -0.3520125153213526,
        gamma=(0.14348811768563757, 0.1701700515711926, 0.2235528258833871))


def test_random_config_draws_from_a_numpy_generator_as_before():
    # the tests' numpy Generators, through conftest.numpy_draws, must see the same
    # configurations as when _random_config drew the decay rates with one size=3 call
    rng = np.random.default_rng([0, 7])
    assert validate._random_config(numpy_draws(rng), lossy=True) == validate.make_config(
        0.010879067499576331, 0.9611647431824198, 0.017887173363176977, 2, 1, 1,
        -0.7890301369731798, 0.4937952609234407, 0.7514802921891671,
        gamma=(0.13837346132819045, 0.08363517675901486, 0.12990257734589195))


def test_validate_command_exits_zero_on_seed_zero(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "nkerr.cli", "validate", "--seed", "0"],
                          capture_output=True, text=True)
    print(proc.stdout, end="")
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 11
    assert "FAIL" not in proc.stdout


def test_sweep_command_byte_identical_across_processes(tmp_path):
    scenario = {
        "modes": {
            "a": {"g_re": 0.05, "g_im": 0.0, "delta": 0.0, "n": 1},
            "b": {"g_re": 1.0, "g_im": 0.0, "delta": 0.0, "n": 0},
            "c": {"g_re": 0.05, "g_im": 0.0, "delta": 0.0, "n": 1},
        },
        "gamma": {"g1": 0.0, "g2": 0.0, "g3": 0.4},
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario), encoding="utf-8")
    blobs = []
    for name in ("one.csv", "two.csv"):
        opath = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "nkerr.cli", "sweep", str(spath), "--axis", "dc",
             "--lo", "-2", "--hi", "2", "--steps", "101", "--out", str(opath)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        blobs.append(opath.read_bytes())
    assert blobs[0] == blobs[1]
    header = blobs[0].decode("utf-8").splitlines()[0]
    assert header == "axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid"


# -- running the criteria ---------------------------------------------------

def _plant_kerr_error(monkeypatch):
    # a relative error of 1e-7 in K and S, which criteria 3, 4 and 5 fail
    true_coefficients = effective.coefficients

    def planted(cfg):
        co = true_coefficients(cfg)
        return co._replace(cross_kerr=co.cross_kerr * (1 + 1e-7),
                           self_kerr=co.self_kerr * (1 + 1e-7))

    monkeypatch.setattr(effective, "coefficients", planted)


def test_run_all_reports_the_criteria_a_planted_error_fails(monkeypatch):
    # the planted error makes criteria 3, 4 and 5 fail, each with a detail
    _plant_kerr_error(monkeypatch)
    results = validate.run_all(0)
    assert [r.number for r in results] == list(range(1, 12))
    failed = [r for r in results if not r.passed]
    assert [r.number for r in failed] == [3, 4, 5] and all(r.detail for r in failed)


def test_validate_reports_each_failure_and_exits_1(monkeypatch):
    _plant_kerr_error(monkeypatch)
    out = io.StringIO()
    assert cli.main(["validate", "--seed", "0"], stdout=out) == 1
    lines = out.getvalue().splitlines()
    gated = (Path(__file__).resolve().parent / "gated" / "validate-seed0.txt").read_text(
        encoding="utf-8").splitlines()
    # criteria 3, 4 and 5 read FAIL, each followed by its first failure; the
    # other eight lines are the corpus's
    assert len(lines) == len(gated) + 3 and lines[-1] == "FAILURES present"
    assert [line for line in lines[:-1] if not line.startswith("  ")] == [
        line.removesuffix("PASS") + "FAIL" if line.split()[1] in ("03", "04", "05") else line
        for line in gated[:-1]]
    for line, after in zip(lines, lines[1:]):
        assert line.endswith(": FAIL") == after.startswith("  ")
        if line.endswith(": FAIL"):
            assert re.fullmatch(r"  first failure: expected=.+, actual=.+, tolerance=.+", after)


@pytest.mark.parametrize("seed", [1.0, True, "1", -1], ids=["float", "bool", "str", "negative"])
def test_run_all_refuses_a_seed_that_is_not_an_integer_at_least_zero(seed):
    # the streams are seeded by the text "seed/lane": 1.0 would draw other scenarios than 1
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}$"):
        validate.run_all(seed)


def test_run_all_draws_the_same_for_a_numpy_integer_seed(monkeypatch):
    seen = []

    def record(draws, chk):
        oracle_configs = [cfg for cfg, _, _ in draws.oracle]
        seen.append((draws.resonant, oracle_configs, validate._rng(draws.seed, 7).random()))

    monkeypatch.setattr(validate, "_CRITERIA", [("draws", record)])
    validate.run_all(np.int64(1))
    validate.run_all(1)
    assert seen[0] == seen[1]


def _refuse_fork():
    raise AssertionError("run_all forked")


def test_run_all_never_forks(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert validate.run_all(0) == list(RESULTS.values())


def _raising(exc):
    def criterion(draws, chk):
        raise exc
    return criterion


def test_validate_exits_3_on_the_first_criterions_exception(monkeypatch, capsys):
    criteria = list(validate._CRITERIA)
    criteria[6] = (criteria[6][0], _raising(DegeneracyError("x")))
    criteria[8] = (criteria[8][0], _raising(PoleError("y")))
    monkeypatch.setattr(validate, "_CRITERIA", criteria)
    out = io.StringIO()
    assert cli.main(["validate", "--seed", "0"], stdout=out) == 3
    assert capsys.readouterr().err == "domain error: x\n"
    assert out.getvalue() == ""
