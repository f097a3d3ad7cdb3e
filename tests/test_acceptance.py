"""Acceptance gate: every criterion at its stated tolerance, seed 0.

Each test prints its own PASS/FAIL line (run with ``pytest -s`` to see them
inline); the same checks back the ``nkerr validate`` command.
"""

import dataclasses
import io
import json
import os
import select
import subprocess
import sys

import numpy as np
import pytest

from nkerr import cli, effective, model, validate
from nkerr.errors import DegeneracyError

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


# -- the criteria on several processes --------------------------------------

def _refuse_fork():
    raise AssertionError("run_all forked")


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


def test_run_all_same_results_on_one_and_on_three_processes(monkeypatch):
    # the planted error makes criteria 3, 4 and 5 fail, so their details count too
    true_coefficients = effective.coefficients
    forks = []
    true_fork = os.fork

    def fork():
        pid = true_fork()
        forks.append(pid)
        return pid

    def planted(cfg):
        co = true_coefficients(cfg)
        return dataclasses.replace(co, cross_kerr=co.cross_kerr * (1 + 1e-7),
                                   self_kerr=co.self_kerr * (1 + 1e-7))

    for seed, coefficients in [*((seed, true_coefficients) for seed in range(6)), (0, planted)]:
        with monkeypatch.context() as m:
            m.setattr(effective, "coefficients", coefficients)
            _use_cpus(m, 1)
            m.setattr(os, "fork", _refuse_fork)
            serial = validate.run_all(seed)
            _use_cpus(m, 3)
            m.setattr(os, "fork", fork)
            assert validate.run_all(seed) == serial
        assert len(forks) == 2
        forks.clear()
    assert [r.number for r in serial if not r.passed] == [3, 4, 5] and serial[2].detail
    assert sorted(validate._COSTLIEST_FIRST) == [r.number for r in serial]


@pytest.fixture
def child_signal():
    """A pipe on which a forked child writes the number of each criterion it starts."""
    read_end, write_end = os.pipe()
    yield read_end, write_end
    os.close(read_end)
    os.close(write_end)


def _plant_in_children(monkeypatch, child_signal, end_child):
    """Every criterion started in a forked child signals its number, then calls ``end_child``.

    The parent runs the true criteria, its first only once a child has
    signalled, so at least one criterion is sure to run in a child.
    """
    parent = os.getpid()
    read_end, write_end = child_signal

    def planted(number, criterion):
        def run(draws):
            if os.getpid() != parent:
                os.write(write_end, bytes([number]))
                end_child()
            assert select.select([read_end], [], [], 60)[0], "no child started a criterion"
            return criterion(draws)
        return run

    monkeypatch.setattr(validate, "_CRITERIA",
                        [planted(k, c) for k, c in enumerate(validate._CRITERIA, 1)])
    _use_cpus(monkeypatch, 3)


def _raise_degeneracy():
    raise DegeneracyError("x")


def test_run_all_raises_a_criterions_exception_from_a_child(monkeypatch, child_signal):
    _plant_in_children(monkeypatch, child_signal, _raise_degeneracy)
    with pytest.raises(DegeneracyError) as info:
        validate.run_all(0)
    assert info.value.args == ("x",)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_validate_exits_3_on_a_criterions_exception_serial_or_from_a_child(
        monkeypatch, capsys, child_signal):
    with monkeypatch.context() as m:
        _use_cpus(m, 1)
        m.setattr(validate, "_CRITERIA", [*validate._CRITERIA[:6],
                                          lambda draws: _raise_degeneracy()])
        assert cli.main(["validate", "--seed", "0"], stdout=io.StringIO()) == 3
    serial = capsys.readouterr().err
    _plant_in_children(monkeypatch, child_signal, _raise_degeneracy)
    out = io.StringIO()
    assert cli.main(["validate", "--seed", "0"], stdout=out) == 3
    assert capsys.readouterr().err == serial == "domain error: x\n"
    assert out.getvalue() == ""


def test_run_all_names_the_criteria_a_dead_child_took(monkeypatch, child_signal):
    _plant_in_children(monkeypatch, child_signal, lambda: os._exit(9))
    with pytest.raises(ChildProcessError) as info:
        validate.run_all(0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    taken = sorted(os.read(child_signal[0], 64))  # each child died in its first criterion
    assert str(info.value).startswith(
        f"no result for criteria {', '.join(map(str, taken))}: process ")
    assert "exited with code 9" in str(info.value)
