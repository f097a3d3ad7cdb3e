"""Acceptance gate: every criterion at its stated tolerance, seed 0.

Each test prints its own PASS/FAIL line (run with ``pytest -s`` to see them
inline); the same checks back the ``nkerr validate`` command.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from nkerr import cli, effective, model, validate

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
        return dataclasses.replace(co, **{field: getattr(co, field) * (1 + 1e-7)})

    monkeypatch.setattr(effective, "coefficients", planted)
    result = {r.number: r for r in validate.run_all(seed=0)}[number]
    assert not result.passed, f"criterion {number} missed a 1e-7 error in {field}"


def test_criterion_10_catches_planted_forbidden_coupling(monkeypatch):
    # probe a coupling levels 1 and 4 directly, which the N-configuration forbids
    true_split = model.split

    def planted(cfg):
        sp = true_split(cfg)
        va = sp.va.copy()
        va[0, 3] = va[3, 0] = 0.5
        return dataclasses.replace(sp, va=va)

    monkeypatch.setattr(model, "split", planted)
    assert not validate._criterion_10(validate._Draws(0, [], [])).passed


def _writer_sampling_constancy_at_the_ends(result):
    columns = (result.value, result.chi1.real, result.chi1.imag, result.chi3_self.real,
               result.chi3_self.imag, result.chi3_cross.real, result.chi3_cross.imag)
    ends = [column[[0, -1]].view(np.int64) for column in columns]
    rows = []
    for k in range(len(result)):
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
    assert not validate._criterion_11(validate._Draws(0, [], [])).passed


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
