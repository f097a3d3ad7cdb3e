import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nkerr import cli, effective, model, oracle, suscept
from nkerr.errors import PoleError, ScenarioError

from conftest import extreme, extreme_doc, fuzz_scenarios, make_config


def scenario_doc(da=0.0, db=0.0, dc=5.0, ga=0.1, gc=0.1, gamma=None):
    doc = {
        "modes": {
            "a": {"g_re": ga, "g_im": 0.0, "delta": da, "n": 1},
            "b": {"g_re": 1.0, "g_im": 0.0, "delta": db, "n": 0},
            "c": {"g_re": gc, "g_im": 0.0, "delta": dc, "n": 1},
        },
    }
    if gamma is not None:
        doc["gamma"] = gamma
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- scenario schema ---------------------------------------------------------

def test_scenario_roundtrip(tmp_path):
    cfg = cli.load_scenario(write_scenario(tmp_path, scenario_doc()))
    assert cfg.mode_a.g == 0.1
    assert cfg.mode_c.delta == 5.0
    assert cfg.gamma == (0.0, 0.0, 0.0)


def test_scenario_gamma_defaults_and_partial(tmp_path):
    cfg = cli.load_scenario(write_scenario(tmp_path, scenario_doc(gamma={"g2": 0.3})))
    assert cfg.gamma == (0.0, 0.3, 0.0)


def test_scenario_unknown_top_key_rejected(tmp_path):
    doc = scenario_doc()
    doc["extra"] = 1
    with pytest.raises(ScenarioError, match="scenario has unknown keys"):
        cli.load_scenario(write_scenario(tmp_path, doc))


def test_scenario_unknown_mode_key_rejected(tmp_path):
    doc = scenario_doc()
    doc["modes"]["a"]["phase"] = 0.3
    with pytest.raises(ScenarioError, match="unknown keys"):
        cli.load_scenario(write_scenario(tmp_path, doc))


def test_scenario_missing_mode_key_rejected(tmp_path):
    doc = scenario_doc()
    del doc["modes"]["b"]["delta"]
    with pytest.raises(ScenarioError, match="missing keys"):
        cli.load_scenario(write_scenario(tmp_path, doc))


def test_scenario_fractional_photon_number_rejected(tmp_path):
    doc = scenario_doc()
    doc["modes"]["a"]["n"] = 1.5
    with pytest.raises(ScenarioError, match="integer"):
        cli.load_scenario(write_scenario(tmp_path, doc))


def test_scenario_nonfinite_number_rejected(tmp_path):
    doc = scenario_doc()
    doc["modes"]["a"]["delta"] = float("inf")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # json emits Infinity
    with pytest.raises(ScenarioError, match="finite"):
        cli.load_scenario(str(path))


def test_scenario_invalid_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["coeffs", str(path)], stdout=io.StringIO()) == 2


def test_scenario_integer_past_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    # json.load refuses integers of more than 4300 digits with a plain ValueError
    path = tmp_path / "long.json"
    path.write_text(json.dumps(scenario_doc()).replace('"g_re": 0.1', '"g_re": ' + "1" * 5001, 1),
                    encoding="utf-8")
    with pytest.raises(ScenarioError, match="4300 digits"):
        cli.load_scenario(str(path))
    out = io.StringIO()
    assert cli.main(["coeffs", str(path)], stdout=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("scenario error: scenario is not readable JSON")


_DELETE = object()


def _edited(*changes):
    """``scenario_doc()`` with each (key path, value) change applied; _DELETE drops the key."""
    doc = scenario_doc()
    for path, value in changes:
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value
    return doc


_BEYOND_DOUBLE = 10**400  # a JSON integer that no float holds

# (id, document, a fragment of the key path the message must name)
MALFORMED_SCENARIOS = [
    ("not-an-object", [scenario_doc()], "scenario"),
    ("missing-modes", _edited(("modes", _DELETE)), "modes"),
    ("unknown-top-key", _edited(("extra", 1)), "extra"),
    ("modes-not-an-object", _edited(("modes", [1, 2, 3])), "modes"),
    ("missing-label", _edited(("modes.c", _DELETE)), "modes"),
    ("extra-label", _edited(("modes.d", {"g_re": 0.1, "g_im": 0.0, "delta": 0.0, "n": 1})),
     "modes"),
    ("mode-not-an-object", _edited(("modes.a", 0.1)), "modes.a"),
    ("unknown-mode-key", _edited(("modes.a.phase", 0.3)), "modes.a"),
    ("missing-mode-key", _edited(("modes.b.delta", _DELETE)), "modes.b"),
    ("bool-number", _edited(("modes.a.g_re", True)), "modes.a.g_re"),
    ("str-number", _edited(("modes.b.delta", "0.1")), "modes.b.delta"),
    ("null-number", _edited(("modes.c.g_im", None)), "modes.c.g_im"),
    ("fractional-n", _edited(("modes.a.n", 1.5)), "modes.a"),
    ("negative-n", _edited(("modes.c.n", -1)), "modes.c"),
    ("bool-n", _edited(("modes.b.n", False)), "modes.b"),
    ("infinite-delta", _edited(("modes.a.delta", float("inf"))), "modes.a"),
    ("nan-coupling", _edited(("modes.c.g_im", float("nan"))), "modes.c"),
    ("gamma-not-an-object", _edited(("gamma", [0.0, 0.0, 0.0])), "gamma"),
    ("unknown-gamma-key", _edited(("gamma", {"g4": 0.1})), "gamma"),
    ("negative-rate", _edited(("gamma", {"g2": -0.1})), "gamma"),
    ("infinite-rate", _edited(("gamma", {"g3": float("inf")})), "gamma"),
    ("nan-rate", _edited(("gamma", {"g1": float("nan")})), "gamma"),
    ("bool-rate", _edited(("gamma", {"g1": True})), "gamma.g1"),
    ("coupling-beyond-double-range", _edited(("modes.a.g_re", _BEYOND_DOUBLE)),
     "modes.a.g_re"),
    ("detuning-beyond-double-range", _edited(("modes.a.delta", _BEYOND_DOUBLE)),
     "modes.a.delta"),
    ("rate-beyond-double-range", _edited(("gamma", {"g2": _BEYOND_DOUBLE})), "gamma.g2"),
]


@pytest.mark.parametrize("doc, where", [case[1:] for case in MALFORMED_SCENARIOS],
                         ids=[case[0] for case in MALFORMED_SCENARIOS])
def test_malformed_scenario_is_a_schema_error_naming_its_key(tmp_path, capsys, doc, where):
    path = write_scenario(tmp_path, doc)  # json writes inf and nan as Infinity and NaN
    with open(path, encoding="utf-8") as fh:
        parsed = json.load(fh)
    with pytest.raises(ScenarioError) as exc:
        cli.scenario_config(parsed)
    assert where in str(exc.value)
    capsys.readouterr()
    for argv in (["coeffs", path], ["sweep", path, "--axis", "da", "--lo", "0", "--hi", "1",
                                    "--steps", "3", "--out", str(tmp_path / "out.csv")]):
        out = io.StringIO()
        assert cli.main(argv, stdout=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and where in err
    assert not (tmp_path / "out.csv").exists()


# -- coeffs ------------------------------------------------------------------

def test_coeffs_pure_kerr_output(tmp_path):
    out = io.StringIO()
    code = cli.main(["coeffs", write_scenario(tmp_path, scenario_doc())], stdout=out)
    assert code == 0
    lines = out.getvalue().splitlines()
    head = dict(item.split("=") for item in lines[0].split())
    assert float(head["L"]) == 0.0
    assert float(head["S"]) == 0.0
    assert float(head["K"]) == pytest.approx(-2e-5, rel=1e-12)
    assert lines[1].startswith("pure-kerr K=")
    assert float(lines[1].split()[1].split("=")[1]) == pytest.approx(-2e-5, rel=1e-12)


def test_coeffs_delta3_pole_exit3(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc(da=0.4, db=0.4, dc=0.0))
    assert cli.main(["coeffs", path], stdout=io.StringIO()) == 3
    assert "pole: delta_3 = 0" in capsys.readouterr().err


def test_coeffs_near_pole_exit3(tmp_path, capsys):
    # delta_1*delta_2 - |g_b|^2 = -1.1e-16, rounding noise against terms of 1; a
    # photon number past double range is the out-of-range pole
    for doc, pole in ((scenario_doc(da=1.0, db=1e-16, dc=0.5), model.PUMP_PAIR),
                      (_edited(("modes.a.n", 10**400)), model.OUT_OF_RANGE)):
        out = io.StringIO()
        assert cli.main(["coeffs", write_scenario(tmp_path, doc)], stdout=out) == 3
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"domain error: {model.POLES[pole - 1]}\n"


def test_coeffs_pole_in_pure_form_writes_nothing(tmp_path, capsys):
    # Raman-resonant within tolerance, not exactly, and no pump: the general
    # form is finite, the pure form has the pole |g_b|^2 (n_b+1) = 0
    doc = scenario_doc(da=0.3, db=0.3 - 4e-13, dc=0.5)
    doc["modes"]["b"]["g_re"] = 0.0
    out = io.StringIO()
    assert cli.main(["coeffs", write_scenario(tmp_path, doc)], stdout=out) == 3
    assert out.getvalue() == ""
    assert "pole: |g_b|^2 (n_b+1) = 0" in capsys.readouterr().err


@pytest.mark.parametrize("delta2, pure_line", [(-4e-13, True), (-3e-12, False)])
def test_coeffs_pure_kerr_line_at_edge_of_resonance_tolerance(tmp_path, delta2, pure_line):
    # |delta_2| <= RESONANCE_RTOL * max(1, |delta_1|) = 1e-12 here, and then
    # |delta_1 delta_2| <= 3e-13 < RESONANCE_RTOL * G_b = 1e-12
    path = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3 - delta2, dc=0.5))
    out = io.StringIO()
    assert cli.main(["coeffs", path], stdout=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("L=")
    assert len(lines) == (2 if pure_line else 1)
    if pure_line:
        assert lines[1].startswith("pure-kerr K=")


@pytest.mark.parametrize("db, dc", [(0.25, 1e11), (0.1, 1e200)])
def test_coeffs_prints_no_pure_line_off_raman_resonance(tmp_path, db, dc):
    # delta_2 = 0.05 and 0.2; a Raman tolerance scaled by |delta_3| once let the
    # pure form through, 3% and 13% away from K
    path = write_scenario(tmp_path, scenario_doc(da=0.3, db=db, dc=dc, ga=0.01, gc=0.01))
    out = io.StringIO()
    assert cli.main(["coeffs", path], stdout=out) == 0
    assert out.getvalue().startswith("L=") and out.getvalue().count("\n") == 1


def test_coeffs_prints_the_pure_line_only_where_it_agrees_with_k(tmp_path):
    # delta_1 delta_2 = 8e-13 G_b passes the Raman test, but it puts K 1.6e-12
    # away from the pure form, past criterion 5's 1e-12
    doc = scenario_doc(da=1.0, db=1.0 - 8e-13, dc=0.5, ga=0.01, gc=0.01)
    assert effective.pure_cross_kerr(cli.scenario_config(doc)) < 0
    out = io.StringIO()
    assert cli.main(["coeffs", write_scenario(tmp_path, doc)], stdout=out) == 0
    assert out.getvalue().startswith("L=") and out.getvalue().count("\n") == 1


def test_coeffs_lossy_refused_exit4(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc(gamma={"g1": 0.1, "g2": 0.0, "g3": 0.0}))
    assert cli.main(["coeffs", path], stdout=io.StringIO()) == 4
    assert "sweep" in capsys.readouterr().err


_AXES = ("da", "db", "dc")


def test_exit_codes_and_finite_output_under_extreme_inputs(tmp_path):
    # every failure maps to a documented exit code, and nothing non-finite is
    # printed as a value: coeffs stdout and valid sweep rows stay finite
    opath = tmp_path / "out.csv"
    for doc, axis, lo, hi in fuzz_scenarios():
        spath = write_scenario(tmp_path, doc)
        out = io.StringIO()
        assert cli.main(["coeffs", spath], stdout=out) in (0, 2, 3, 4), doc
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), doc
        opath.unlink(missing_ok=True)
        code = cli.main(["sweep", spath, "--axis", axis, f"--lo={lo!r}", f"--hi={hi!r}",
                         "--steps", "5", "--out", str(opath)], stdout=io.StringIO())
        assert code in (0, 2, 3, 4), doc
        if code == 0:
            rows = opath.read_text(encoding="utf-8").splitlines()[1:]
            assert len(rows) == 5
            assert not [row for row in rows if row.endswith(",1") and
                        ("nan" in row or "inf" in row)], doc


def _pole_code(config, deltas):
    """The code of the first of every pole with a term at the detunings (Python
    floats or arrays), or "raise" where a term that does not depend on them
    leaves double range."""
    try:
        with model.in_double_range(), np.errstate(divide="ignore", invalid="ignore",
                                                  over="ignore"):
            return model.pole_code(model.pole_terms(config, *deltas),
                                   range(1, model.OUT_OF_RANGE))
    except PoleError:
        return "raise"


def test_scalar_and_array_pole_codes_agree():
    # the pole table is one body for Python floats (coeffs) and arrays (sweep):
    # both reach the same code on the fuzz scenarios and their sweep grids, at
    # detunings of +-1e200, and on the grids whose poles sit on grid points
    cases = []
    for doc, axis, lo, hi in fuzz_scenarios():
        with contextlib.suppress(ScenarioError):
            config = cli.scenario_config(doc)
            cases += [(config, axis, [None, *np.linspace(lo, hi, 5).tolist()])]
    ref = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    for gamma in ((0.0, 0.0, 0.0), (0.12, 0.2, 0.07)):
        cases += [(replace(ref, gamma=gamma), axis, [1e200, -1e200]) for axis in _AXES]
        for n_c in (0, 1):  # test_suscept's bit-for-bit sweep grids
            grid = make_config(0.012, 0.5, 0.009, 2, 1, n_c, 0.5, 0.5, 0.25, gamma=gamma)
            cases += [(grid, axis, np.linspace(-1.0, 1.0, 257).tolist()) for axis in _AXES]
    seen = set()
    for config, axis, values in cases:
        for value in values:
            deltas = [config.mode_a.delta, config.mode_b.delta, config.mode_c.delta]
            if value is not None:
                deltas[_AXES.index(axis)] = value
            scalar = _pole_code(config, deltas)
            array = _pole_code(config, [np.array([d]) for d in deltas])
            assert type(scalar) in (int, str)  # the scalar path makes no numpy value
            assert scalar == (array if isinstance(array, str) else array[0]), (config, deltas)
            seen.add(scalar)
    assert seen == {"raise", *range(model.OUT_OF_RANGE + 1)}  # every outcome is reached


def test_evolve_and_pure_line_under_extreme_inputs(tmp_path):
    # evolve at a few times keeps the exit codes and finite output of the
    # coeffs/sweep fuzz above, and a printed pure-kerr line agrees with K
    rng = np.random.default_rng(31)
    pure_lines = 0
    for k in range(160):
        doc = extreme_doc(rng, k)
        if k % 4 == 2:  # near Raman resonance: delta_2 = 1e-13 delta_1, delta_1 delta_2 any size
            doc["modes"]["b"]["delta"] = doc["modes"]["a"]["delta"] * (1 - 1e-13)
        spath = write_scenario(tmp_path, doc)
        out = io.StringIO()
        assert cli.main(["coeffs", spath], stdout=out) in (0, 2, 3, 4), doc
        lines = out.getvalue().splitlines()
        if len(lines) == 2:
            general = float(lines[0].split("K=")[1])
            pure = float(lines[1].split()[1].split("=")[1])
            assert abs(pure - general) <= 1e-12 * abs(general), doc
            pure_lines += 1
        for t in (1.0, -1e3, extreme(rng)):
            out = io.StringIO()
            assert cli.main(["evolve", spath, f"--t={t!r}"], stdout=out) in (0, 2, 3, 4), doc
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), doc
    assert pure_lines > 0


# -- sweep -------------------------------------------------------------------

def test_sweep_csv_exact_shape(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    code = cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", "2", "--out", str(opath)], stdout=io.StringIO())
    assert code == 0
    text = opath.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid"
    assert len(lines) == 3
    assert text.endswith("\n")
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "dc"
        assert fields[-1] == "1"
        for field in fields[1:8]:
            assert math.isfinite(float(field))


def test_sweep_byte_deterministic(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    blobs = []
    for name in ("a.csv", "b.csv"):
        opath = tmp_path / name
        assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-2", "--hi", "2",
                         "--steps", "41", "--out", str(opath)],
                        stdout=io.StringIO()) == 0
        blobs.append(opath.read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_gap_rows_marked_invalid(tmp_path):
    # lossless scan through delta_3 = 0 leaves an explicit gap row
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    opath = tmp_path / "out.csv"
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", "3", "--out", str(opath)], stdout=io.StringIO()) == 0
    lines = opath.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "dc,0,,,,,,,0"


@pytest.mark.parametrize("bound, value", [("--lo", "nan"), ("--hi", "inf")])
def test_sweep_nonfinite_bound_exit2(tmp_path, bound, value):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    argv = {"--lo": "-1", "--hi": "1", bound: value}
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", spath, "--axis", "dc", "--lo", argv["--lo"], "--hi", argv["--hi"],
                  "--steps", "3", "--out", str(opath)], stdout=io.StringIO())
    assert exc.value.code == 2
    assert not opath.exists()


def test_sweep_span_outside_double_range_exit2_without_warning(tmp_path):
    # each bound is finite but hi - lo is not: the bounds are refused, not the dc values
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "nkerr.cli", "sweep", spath, "--axis", "dc",
                           "--lo", "-1e308", "--hi", "1e308", "--steps", "5", "--out", str(opath)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("invalid arguments: lo and hi") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and not opath.exists()


def test_sweep_unwritable_out_exit2(tmp_path, capsys):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "missing-dir" / "out.csv"
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", "3", "--out", str(opath)], stdout=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1


def test_sweep_unwritable_out_fails_before_sweeping(tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr(suscept, "sweep_at", no_sweep)
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "missing-dir" / "out.csv"
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", "100001", "--out", str(opath)], stdout=io.StringIO()) == 2


def test_sweep_too_few_steps_leaves_out_untouched(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    opath.write_text("kept\n", encoding="utf-8")
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", "1", "--out", str(opath)], stdout=io.StringIO()) == 2
    assert opath.read_text(encoding="utf-8") == "kept\n"


def test_sweep_steps_past_sys_maxsize_over_8_exit2(tmp_path, capsys):
    # past sys.maxsize // 8 rows numpy could not index the whole grid; fewer
    # rows stream chunk by chunk whatever their number
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    opath.write_bytes(b"kept,1\n")
    for steps in (2**63 - 1, 2**63):
        assert steps > sys.maxsize // 8
        assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                         "--steps", str(steps), "--out", str(opath)],
                        stdout=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments:") and err.count("\n") == 1
        assert opath.read_bytes() == b"kept,1\n"


def test_failed_sweep_keeps_the_bytes_of_out(tmp_path, capsys):
    # |g_a|^4 leaves double range, or the photon number n_a does
    opath = tmp_path / "out.csv"
    for doc in (scenario_doc(ga=1e100), _edited(("modes.a.n", 10**400))):
        opath.write_bytes(b"kept,1\n")
        assert cli.main(["sweep", write_scenario(tmp_path, doc), "--axis", "dc", "--lo", "-1",
                         "--hi", "1", "--steps", "3", "--out", str(opath)],
                        stdout=io.StringIO()) == 3
        assert opath.read_bytes() == b"kept,1\n"
        assert capsys.readouterr().err == "domain error: pole: a term is outside double range\n"


@pytest.mark.parametrize("value", ["-1e-3", "-2E+1", "-.5e0"])
def test_negative_bounds_in_scientific_notation(tmp_path, value):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))

    def sweep(*bounds):
        opath = tmp_path / "out.csv"
        out = io.StringIO()
        assert cli.main(["sweep", spath, "--axis", "dc", *bounds, "--steps", "5",
                         "--out", str(opath)], stdout=out) == 0
        return out.getvalue(), opath.read_bytes()

    def evolve(*time):
        out = io.StringIO()
        assert cli.main(["evolve", write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5)),
                         *time], stdout=out) == 0
        return out.getvalue()

    assert sweep("--lo", value, "--hi", "1") == sweep(f"--lo={value}", "--hi", "1")
    assert sweep("--lo", "-30", "--hi", value) == sweep("--lo", "-30", f"--hi={value}")
    assert evolve("--t", value) == evolve(f"--t={value}")


@pytest.mark.parametrize("argv", [["--lo", "-inf", "--hi", "1"], ["--lo", "-1", "--hi", "-nan"],
                                  ["--lo", "-1e400", "--hi", "1"]])
def test_negative_non_finite_bound_exit2(tmp_path, argv):
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", spath, "--axis", "dc", *argv, "--steps", "3", "--out", str(opath)],
                 stdout=io.StringIO())
    assert exc.value.code == 2
    assert not opath.exists()


@pytest.mark.parametrize("command", ["sweep", "evolve"])
def test_a_bound_or_time_that_is_not_a_number_exits2(tmp_path, capsys, command):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01))
    opath = tmp_path / "out.csv"
    argv = {"sweep": ["sweep", spath, "--axis", "dc", "--hi", "1", "--steps", "3",
                      "--out", str(opath), "--lo", "abc"],
            "evolve": ["evolve", spath, "--t", "x"]}[command]
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv, stdout=out)
    assert exc.value.code == 2
    flag, text = argv[-2:]
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: not a number: {text!r}\n")
    assert out.getvalue() == "" and not opath.exists()


def _chunked_sweep_args(spath, opath):
    """A lossless dc sweep over three chunks and a row; delta_2 = 0, so delta_3 = dc,
    and the exact grid step 0.5/chunk puts the pole dc = 0 on row 2*chunk."""
    steps = 3 * cli.SWEEP_CHUNK_ROWS + 1
    return ["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "0.5",
            "--steps", str(steps), "--out", str(opath)]


def test_sweep_csv_across_chunks_matches_per_row_rendering(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    opath = tmp_path / "out.csv"
    argv = _chunked_sweep_args(spath, opath)
    assert cli.main(argv, stdout=io.StringIO()) == 0
    result = suscept.sweep_at(cli.load_scenario(spath), "dc",
                              suscept.sweep_grid(-1.0, 0.5, int(argv[-3])))
    assert np.flatnonzero(result.pole).tolist() == [2 * cli.SWEEP_CHUNK_ROWS]
    header = "axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid\n"
    lines = opath.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines == (header + _per_field_rows(result)).splitlines(keepends=True)


def _refuse_fork():
    raise AssertionError("the sweep forked")


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _counting_fork(forks):
    """``os.fork`` that appends each child's pid to ``forks``."""
    true_fork = os.fork

    def fork():
        pid = true_fork()
        if pid:
            forks.append(pid)
        return pid

    return fork


def test_sweep_csv_same_bytes_for_every_part_count(tmp_path, monkeypatch):
    # at two parts, the pole row 2*chunk is the first row of the second part
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    blobs = {}
    for cpus in (1, 2, 3, 4):
        forks = []
        with monkeypatch.context() as m:
            _use_cpus(m, cpus)
            m.setattr(os, "fork", _refuse_fork if cpus == 1 else _counting_fork(forks))
            opath = tmp_path / f"cpus{cpus}.csv"
            assert cli.main(_chunked_sweep_args(spath, opath), stdout=io.StringIO()) == 0
        assert len(forks) == cpus - 1
        blobs[cpus] = opath.read_bytes()
    assert blobs[2] == blobs[1] and blobs[3] == blobs[1] and blobs[4] == blobs[1]


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_csv_same_bytes_for_every_chunk_size(tmp_path, monkeypatch, cpus):
    # 12289 rows with the pole dc = 0 on row 8192: 4 chunks at 4096 rows a
    # chunk, 13 at 1024, 13 at 1000 and 25 at 512, the last of one row at
    # 4096, 1024 and 512; on 3 CPUs the later parts start at rows 4096 and
    # 8192, or 4000 and 8000
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    blobs = {}
    for rows in (4096, 1024, 1000, 512):
        forks = []
        with monkeypatch.context() as m:
            m.setattr(cli, "SWEEP_CHUNK_ROWS", rows)
            _use_cpus(m, cpus)
            m.setattr(os, "fork", _refuse_fork if cpus == 1 else _counting_fork(forks))
            opath = tmp_path / f"rows{rows}.csv"
            assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "0.5",
                             "--steps", "12289", "--out", str(opath)], stdout=io.StringIO()) == 0
        assert len(forks) == cpus - 1
        blobs[rows] = opath.read_bytes()
    assert all(blob == blobs[4096] for blob in blobs.values())
    assert blobs[4096].count(b"\n") == 12290
    assert blobs[4096].splitlines()[8193] == b"dc,0,,,,,,,0"


def test_sweep_without_an_affinity_call_runs_on_one_cpu(tmp_path, monkeypatch):
    # where os.sched_getaffinity is missing, as on macOS, every part is written here
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    forks = []
    with monkeypatch.context() as m:
        _use_cpus(m, 2)
        m.setattr(os, "fork", _counting_fork(forks))
        assert cli.main(_chunked_sweep_args(spath, tmp_path / "forked.csv"),
                        stdout=io.StringIO()) == 0
    assert len(forks) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert cli._usable_cpus() == 1
    assert cli.main(_chunked_sweep_args(spath, tmp_path / "serial.csv"),
                    stdout=io.StringIO()) == 0
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


def test_sweep_of_one_chunk_never_forks(tmp_path, monkeypatch):
    _use_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g3": 0.4}))
    opath = tmp_path / "out.csv"
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", str(cli.SWEEP_CHUNK_ROWS), "--out", str(opath)],
                    stdout=io.StringIO()) == 0
    assert opath.read_bytes().count(b"\n") == cli.SWEEP_CHUNK_ROWS + 1


@pytest.mark.parametrize("failing_start", [2 * cli.SWEEP_CHUNK_ROWS, 0],
                         ids=["child", "parent"])
def test_sweep_part_failure_is_output_error_and_reaps_every_child(
        tmp_path, monkeypatch, capsys, failing_start):
    # three parts over four chunks: rows from 0, 1*chunk (child) and 2*chunk (child)
    true_write = cli._write_row_range

    def planted(fh, result, start, stop):
        if start == failing_start:
            raise OSError("planted write failure")
        true_write(fh, result, start, stop)

    monkeypatch.setattr(cli, "_write_row_range", planted)
    _use_cpus(monkeypatch, 3)
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    argv = _chunked_sweep_args(spath, tmp_path / "out.csv")
    assert cli.main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("output error:")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_sweep_of_several_parts_exits_3_before_forking(tmp_path, monkeypatch, capsys):
    # three chunks on three CPUs: the out-of-range |g_a|^4 is found on one point
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    spath = write_scenario(tmp_path, scenario_doc(ga=1e100))
    opath = tmp_path / "out.csv"
    opath.write_bytes(b"kept,1\n")
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1",
                     "--steps", str(3 * cli.SWEEP_CHUNK_ROWS), "--out", str(opath)],
                    stdout=io.StringIO()) == 3
    assert opath.read_bytes() == b"kept,1\n"
    assert capsys.readouterr().err == "domain error: pole: a term is outside double range\n"


def test_failed_one_point_check_leaves_no_out_where_there_was_none(tmp_path, capsys):
    # |g_a|^4 or the photon number n_a leaves double range on every row; a
    # 0-byte --out was left behind
    opath = tmp_path / "out.csv"
    for doc in (scenario_doc(ga=1e200, gamma={"g3": 0.4}), _edited(("modes.a.n", 10**400))):
        assert cli.main(["sweep", write_scenario(tmp_path, doc), "--axis", "dc", "--lo", "-1",
                         "--hi", "1", "--steps", "3", "--out", str(opath)],
                        stdout=io.StringIO()) == 3
        assert not opath.exists()
        assert capsys.readouterr().err == "domain error: pole: a term is outside double range\n"


def test_sweep_of_several_parts_to_dev_null(tmp_path, monkeypatch):
    # the second part's bytes are copied into a file that is not a regular file
    forks = []
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _counting_fork(forks))
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    assert cli.main(_chunked_sweep_args(spath, os.devnull), stdout=io.StringIO()) == 0
    assert len(forks) == 1


def test_sweep_memory_does_not_grow_with_steps(tmp_path, monkeypatch):
    # one process: at 64*chunk+1 rows against chunk+1, the traced peak grew by
    # 7 KiB; holding the whole grid grew it by 8 bytes a row (252 KiB here)
    # and evaluating it at once by ~60
    _use_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g1": 0.1, "g2": 0.1, "g3": 0.4}))

    def peak(steps):
        tracemalloc.start()
        try:
            assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "0.7",
                             "--steps", str(steps), "--out", str(tmp_path / "out.csv")],
                            stdout=io.StringIO()) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunk = cli.SWEEP_CHUNK_ROWS
    peak(chunk + 1)  # pays one-off allocations
    growth = peak(64 * chunk + 1) - peak(chunk + 1)
    assert growth <= 64 * 1024


@pytest.mark.parametrize("axis", ["dc", "da"])
def test_sweep_traced_peak_is_under_half_a_mib(tmp_path, monkeypatch, axis):
    # one process, after a warm-up run: the traced peak of a 20001-row sweep
    # is one chunk's arrays and text and the command's own objects: 0.27 MB on
    # dc and 0.37 MB on da, where all seven columns vary, at 512-row chunks;
    # 0.51 and 0.71 MB at 1024, 1.9 and 2.7 MB at 4096; holding the grid
    # added 8 bytes a row, 0.16 MB
    _use_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    spath = write_scenario(tmp_path, scenario_doc(gamma={"g1": 0.1, "g2": 0.1, "g3": 0.4}))
    argv = ["sweep", spath, "--axis", axis, "--lo", "-1", "--hi", "0.7", "--steps", "20001",
            "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv, stdout=io.StringIO()) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv, stdout=io.StringIO()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_sweep_byte_identical_across_processes_and_hash_seeds(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.3, dc=0.5))
    src = str(Path(__file__).resolve().parents[1] / "src")
    blobs = []
    for hash_seed in ("1", "2"):
        opath = tmp_path / f"out{hash_seed}.csv"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "nkerr.cli",
                               *_chunked_sweep_args(spath, opath)], env=env)
        assert proc.returncode == 0
        blobs.append(opath.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b"\n") == 3 * cli.SWEEP_CHUNK_ROWS + 2


def _per_field_rows(result, start=0, stop=None):
    """Rows [start, stop) of the sweep CSV, each field rendered on its own by ``cli._fmt``."""
    columns = (result.value, result.chi1.real, result.chi1.imag, result.chi3_self.real,
               result.chi3_self.imag, result.chi3_cross.real, result.chi3_cross.imag)
    rows = []
    for k in range(start, len(result.value) if stop is None else stop):
        if result.pole[k] == 0:
            fields = [cli._fmt(column[k]) for column in columns] + ["1"]
        else:
            fields = [cli._fmt(result.value[k])] + [""] * 6 + ["0"]
        rows.append(",".join([result.axis, *fields]) + "\n")
    return "".join(rows)


def _sweep_rows(result, start, stop):
    """Rows [start, stop) of a Sweep as a Sweep of their own."""
    return suscept.Sweep(result.axis, *(field[start:stop] for field in result[1:]))


_POOL = (0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 5e-324, -1e308)


def _runs(draw, n, elements):
    """``n`` entries made of constant runs of ``elements``, so runs break anywhere."""
    runs = draw(st.lists(st.tuples(elements, st.integers(1, n)), min_size=1, max_size=4))
    values, counts = zip(*runs)
    return np.resize(np.repeat(values, counts), n)


@st.composite
def _hand_sweeps(draw):
    """A hand-built Sweep, a chunk size and a row range [start, stop) of it."""
    n = draw(st.integers(1, 24))
    value, *parts = (_runs(draw, n, st.sampled_from(_POOL)) for _ in range(7))
    codes = [0, 0, 0, model.PUMP_PAIR, 0, 0, 0, model.OUT_OF_RANGE]  # 3 in 4 rows valid
    pole = _runs(draw, n, st.sampled_from(codes))
    chis = []
    for re, im in zip(parts[::2], parts[1::2]):
        chi = np.empty(n, dtype=complex)
        chi.real, chi.imag = re, im
        chis.append(np.where(pole == 0, chi, np.nan))  # what sweep_at puts on invalid rows
    result = suscept.Sweep(draw(st.sampled_from(["da", "db", "dc"])), value, *chis, pole)
    start = draw(st.integers(0, n - 1))
    return result, draw(st.integers(1, 6)), start, draw(st.integers(start + 1, n))


@given(_hand_sweeps())
def test_row_writer_formats_each_field_as_fmt_does(case):
    # zeros of both signs, invalid rows, constant runs across and inside chunks
    result, chunk_rows, start, stop = case
    text = "".join(cli._chunk_text(_sweep_rows(result, lo, min(lo + chunk_rows, stop)))
                   for lo in range(start, stop, chunk_rows))
    assert text == _per_field_rows(result, start, stop)


@pytest.mark.parametrize("axis, lo, hi", [("da", "-1", "1"), ("db", "-1", "1"),
                                          ("dc", "-1", "1"), ("dc", "0.2", "0.2")])
def test_sweep_csv_keeps_signed_zeros_and_constant_columns(tmp_path, axis, lo, hi):
    # the lossless reference scenario: each 9-step sweep from -1 to 1 has a
    # column that prints both -0 and 0; at lo = hi every column is constant
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01))
    opath = tmp_path / "out.csv"
    assert cli.main(["sweep", spath, "--axis", axis, "--lo", lo, "--hi", hi, "--steps", "9",
                     "--out", str(opath)], stdout=io.StringIO()) == 0
    result = suscept.sweep_at(cli.load_scenario(spath), axis,
                              suscept.sweep_grid(float(lo), float(hi), 9))
    rows = opath.read_text(encoding="utf-8").split("\n", 1)[1]
    assert rows == _per_field_rows(result)
    fields = [row.split(",") for row in rows.splitlines()]
    assert len(fields) == 9
    if lo == hi:
        assert all(row == fields[0] for row in fields)
    else:
        assert any({"-0", "0"} <= {row[i] for row in fields} for i in range(2, 8))


def test_sweep_past_double_range_writes_invalid_rows_without_warning(tmp_path, capsys):
    # delta_2 = delta_a - delta_b overflows: every row sits on the out-of-range pole
    doc = scenario_doc(da=1e308, db=-1e308, gamma={"g1": 0.1, "g2": 0.1, "g3": 0.1})
    spath = write_scenario(tmp_path, doc)
    opath = tmp_path / "out.csv"
    assert cli.main(["sweep", spath, "--axis", "dc", "--lo", "-1", "--hi", "1", "--steps", "3",
                     "--out", str(opath)], stdout=io.StringIO()) == 0
    assert capsys.readouterr().err == ""
    lines = opath.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == ["dc,-1,,,,,,,0", "dc,0,,,,,,,0", "dc,1,,,,,,,0"]
    result = suscept.sweep_at(cli.load_scenario(spath), "dc", suscept.sweep_grid(-1.0, 1.0, 3))
    assert result.pole.tolist() == [model.OUT_OF_RANGE] * 3


# -- evolve ------------------------------------------------------------------

def test_evolve_lossy_refused_exit4(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01,
                                                 gamma={"g3": 0.1}))
    out = io.StringIO()
    assert cli.main(["evolve", path, "--t", "1.0"], stdout=out) == 4
    assert out.getvalue() == ""
    assert "sweep" in capsys.readouterr().err


def test_evolve_nonfinite_time_exit2(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01))
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", spath, "--t", "inf"], stdout=out)
    assert exc.value.code == 2
    assert out.getvalue() == ""


def test_evolve_exits3_where_the_eigensolver_fails(tmp_path, monkeypatch, capsys):
    def failing(h):
        raise np.linalg.LinAlgError("planted")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(np.linalg, "eig", failing)
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01))
    out = io.StringIO()
    assert cli.main(["evolve", spath, "--t", "1"], stdout=out) == 3
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "domain error: eigensolver failed: planted\n"


def test_evolve_zero_time(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01))
    out = io.StringIO()
    assert cli.main(["evolve", spath, "--t", "0"], stdout=out) == 0
    values = dict(line.split("=") for line in out.getvalue().splitlines())
    assert float(values["effective_phase"]) == 0.0
    assert float(values["oracle_phase"]) == 0.0
    assert float(values["difference"]) == 0.0


def test_evolve_quarter_pi_cross_phase(tmp_path):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01))
    from nkerr import cli as _cli, effective
    cfg = _cli.load_scenario(spath)
    t = (math.pi / 4) / abs(effective.coefficients(cfg).cross_kerr)
    out = io.StringIO()
    assert cli.main(["evolve", spath, "--t", str(t)], stdout=out) == 0
    values = dict(line.split("=") for line in out.getvalue().splitlines())
    assert abs(float(values["difference"])) <= float(values["leakage_bound"])


# a strong probe, the weak reference scenario, and a probe c whose 10 eps_c^2
# leaves double range while every Kerr coefficient is finite
_EVOLVE_DOCS = {"strong": scenario_doc(da=0.7, db=0.0, dc=0.9, ga=1.0, gc=0.1),
                "reference": scenario_doc(da=0.3, db=0.1, dc=0.5, ga=0.01, gc=0.01),
                "huge-probe-c": _edited(("modes.a.g_re", 1e-30), ("modes.c.g_re", 1e154),
                                           ("modes.c.n", 5)),
                "huge-n_a": _edited(("modes.a.n", 10**400))}


@pytest.mark.parametrize("name, t, code", [
    ("strong", "1.7e308", 3), ("strong", "-1.7e308", 3), ("strong", "1e300", 0),
    ("strong", "1e30", 0), ("reference", "1.7e308", 3), ("reference", "-1.7e308", 3),
    ("reference", "1e308", 0), ("reference", "-1e300", 0), ("huge-probe-c", "1", 3),
    ("huge-n_a", "1", 3)])
def test_evolve_at_extreme_time_prints_finite_values_or_exits3(tmp_path, capsys, name, t, code):
    # the effective phase, or an exponent of the propagation, may leave double range
    out = io.StringIO()
    assert cli.main(["evolve", write_scenario(tmp_path, _EVOLVE_DOCS[name]), "--t", t],
                    stdout=out) == code
    if code == 0:
        values = dict(line.split("=") for line in out.getvalue().splitlines())
        assert len(values) == 5 and all(math.isfinite(float(v)) for v in values.values())
    else:
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"domain error: {model.POLES[-1]}\n"


@pytest.mark.parametrize("db", [0.1, 0.25])
def test_evolve_with_detuning_past_1e154_prints_finite_values_without_warning(
        tmp_path, capsys, db):
    # the squared entries of the manifold matrix leave double range; the
    # residual scale of exact_eigensystem must not, and the far bare level 4
    # must not make the dressed pair's gaps near-degenerate
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=db, dc=1e200, ga=0.01, gc=0.01))
    out = io.StringIO()
    assert cli.main(["evolve", spath, "--t", "1"], stdout=out) == 0
    values = dict(line.split("=") for line in out.getvalue().splitlines())
    assert len(values) == 5 and all(math.isfinite(float(v)) for v in values.values())
    assert capsys.readouterr().err == ""


def test_evolve_near_degenerate_exit3(tmp_path, capsys):
    spath = write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=-0.2 + 1e-12,
                                                  ga=0.01, gc=0.01))
    assert cli.main(["evolve", spath, "--t", "1.0"], stdout=io.StringIO()) == 3
    assert "degenerate" in capsys.readouterr().err.lower()


# -- validate ----------------------------------------------------------------

def test_validate_reports_are_deterministic():
    a, b = io.StringIO(), io.StringIO()
    assert cli.main(["validate", "--seed", "3"], stdout=a) == 0
    assert cli.main(["validate", "--seed", "3"], stdout=b) == 0
    assert a.getvalue() == b.getvalue()


def test_validate_rejects_a_negative_seed_and_runs_a_huge_one(capsys):
    out = io.StringIO()
    assert cli.main(["validate", "--seed", "-1"], stdout=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: ") and err.count("\n") == 1
    assert out.getvalue() == ""
    assert cli.main(["validate", "--seed", "99999999999999999999999"], stdout=out) == 0
    assert out.getvalue().endswith("all criteria passed\n")


_CLI_MODULES = {"nkerr", "nkerr.cli", "nkerr.errors", "nkerr.model"}

# writes to stderr the sweep-only modules that ``import nkerr.cli`` loaded and
# the interpreter had not loaded at its start (a site hook may load some),
# then runs ``nkerr.cli.main`` on its arguments (none: the import alone) and
# writes the nkerr and mpmath modules it loaded, and numpy and numpy.random if
# it did, on a second line
_REPORT_LOADED = """import sys
start = set(sys.modules)
import nkerr.cli
print(*sorted({"tempfile", "shutil", "signal"} & set(sys.modules) - start), file=sys.stderr)
code = nkerr.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(*(m for m in sys.modules
        if m.split(".")[0] in ("nkerr", "mpmath") or m in ("numpy", "numpy.random")),
      file=sys.stderr)
sys.exit(code)
"""

@pytest.mark.parametrize("args, loaded", [
    ([], _CLI_MODULES),
    (["coeffs"], _CLI_MODULES | {"nkerr.effective"}),
    (["sweep", "--axis", "dc", "--lo", "0.4", "--hi", "0.6", "--steps", "5", "--out", "x.csv"],
     _CLI_MODULES | {"nkerr.suscept", "numpy"}),
    (["evolve", "--t", "1"], _CLI_MODULES | {"nkerr.effective", "nkerr.oracle", "nkerr.perturb",
                                             "numpy"}),
    (["validate", "--seed", "0"], _CLI_MODULES | {"nkerr.effective", "nkerr.oracle",
                                                   "nkerr.perturb", "nkerr.suscept",
                                                   "nkerr.validate", "numpy"}),
], ids=["import", "coeffs", "sweep", "evolve", "validate"])
def test_command_loads_only_its_modules(tmp_path, args, loaded):
    # a fresh interpreter: no module another test loaded is counted, and a
    # command whose module import is missing fails here with a NameError
    if args and args[0] != "validate":  # every other command reads a scenario
        args = [args[0], write_scenario(tmp_path, scenario_doc(da=0.3, db=0.1, dc=0.5,
                                                               ga=0.01, gc=0.01)), *args[1:]]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _REPORT_LOADED, *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sweep_only, modules = proc.stderr.splitlines()
    assert sweep_only == ""
    assert "numpy.random" not in modules.split()
    assert set(modules.split()) == loaded


# imports ``nkerr.suscept`` alone and writes the nkerr modules loaded, then
# runs ``coherences`` and writes them again, one line each, to stderr
_SUSCEPT_THEN_COHERENCES = """import sys
from nkerr import model, suscept
def loaded():
    print(*sorted(m for m in sys.modules if m.split(".")[0] == "nkerr"), file=sys.stderr)
loaded()
modes = [model.FieldMode(label, g, delta, n) for label, g, delta, n in
         (("a", 0.01, 0.3, 1), ("b", 1.0, 0.1, 0), ("c", 0.01, 0.5, 1))]
rho = suscept.coherences(model.SystemConfig(*modes, (0.0, 0.0, 0.0)))
loaded()
print(repr(rho))
"""


def test_suscept_loads_the_series_engine_only_for_coherences():
    # a fresh interpreter: the closed forms and sweeps never need perturb
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _SUSCEPT_THEN_COHERENCES],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = (set(line.split()) for line in proc.stderr.splitlines())
    assert before == {"nkerr", "nkerr.errors", "nkerr.model", "nkerr.suscept"}
    assert after == before | {"nkerr.perturb"}
    reference = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    assert proc.stdout == f"{suscept.coherences(reference)!r}\n"


# imports ``nkerr.oracle`` alone and writes the nkerr modules loaded, then
# runs ``phase_comparison`` and writes them again, one line each, to stderr
_ORACLE_THEN_PHASE_COMPARISON = """import sys
from nkerr import model, oracle
def loaded():
    print(*sorted(m for m in sys.modules if m.split(".")[0] == "nkerr"), file=sys.stderr)
loaded()
modes = [model.FieldMode(label, g, delta, n) for label, g, delta, n in
         (("a", 0.01, 0.3, 1), ("b", 1.0, 0.1, 0), ("c", 0.01, 0.5, 1))]
phases = oracle.phase_comparison(model.SystemConfig(*modes, (0.0, 0.0, 0.0)), 1.0)
loaded()
print(repr(phases))
"""


def test_oracle_loads_the_closed_forms_only_for_phase_comparison():
    # a fresh interpreter: the exact routes of a series run never need effective
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _ORACLE_THEN_PHASE_COMPARISON],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = (set(line.split()) for line in proc.stderr.splitlines())
    assert before == {"nkerr", "nkerr.errors", "nkerr.model", "nkerr.oracle", "nkerr.perturb"}
    assert after == before | {"nkerr.effective"}
    reference = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    assert proc.stdout == f"{oracle.phase_comparison(reference, 1.0)!r}\n"


# ``runpy._run_module_as_main`` is what ``python -m nkerr.cli`` calls
_RUN_AS_MAIN = """import atexit, runpy, sys
atexit.register(lambda modules=sys.modules: print(
    modules["nkerr.cli"] is modules["__main__"], file=sys.stderr))
sys.argv = ["nkerr", "validate", "--seed", "0"]
runpy._run_module_as_main("nkerr.cli")
"""


def test_cli_py_runs_once_under_python_dash_m():
    # validate imports nkerr.cli for criterion 11; it must find the running module
    from nkerr import validate

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _RUN_AS_MAIN],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "True\n"
    assert proc.stdout == validate.run_report(0)[0]


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "nkerr.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "coeffs" in proc.stdout and "sweep" in proc.stdout


# -- gated bytes -------------------------------------------------------------

# The stdout of each command and the CSV of each sweep below, as the package
# wrote them when the corpus was committed.  A change that alters any of
# these bytes fails here; the corpus is rewritten only together with an
# explicit decision to change the gated output.
_GATED = Path(__file__).resolve().parent / "gated"
# near-pole: |D| is 300 eps of its scale, outside near_pole's 4 eps, so coeffs
# prints its huge L, S and K, while evolve finds a dressed level at the ground
# energy (exit 3) and every row of its sweep is valid
_GATED_SCENARIOS = ("reference", "raman", "n_a-2", "dc-1e200", "strong", "lossy", "complex",
                    "weak-pump", "large-n", "near-pole")
_GATED_RUNS = (
    [(f"coeffs-{s}", ["coeffs", s], 4 if s == "lossy" else 0) for s in _GATED_SCENARIOS]
    + [(f"evolve-{s}-t{t}", ["evolve", s, "--t", t], {"lossy": 4, "near-pole": 3}.get(s, 0))
       for s in _GATED_SCENARIOS for t in ("0.5", "1", "1e3")]
    + [(f"validate-seed{seed}", ["validate", "--seed", str(seed)], 0) for seed in range(6)])


@pytest.mark.parametrize("name, argv, want", _GATED_RUNS, ids=[run[0] for run in _GATED_RUNS])
def test_gated_stdout_matches_the_corpus(name, argv, want):
    if argv[0] != "validate":
        argv = [argv[0], str(_GATED / f"{argv[1]}.json"), *argv[2:]]
    out = io.StringIO()
    assert cli.main(argv, stdout=out) == want
    assert out.getvalue() == (_GATED / f"{name}.txt").read_text(encoding="utf-8")


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs ``nkerr.cli.<first argument>`` on an ``evolve`` of the scenario in the
# second, then writes each BLAS thread count of the environment (- where it
# is unset) and whether numpy was loaded to stderr
_REPORT_THREADS = """import os, sys
import nkerr.cli
run, argv = sys.argv[1], ["evolve", sys.argv[2], "--t", "1"]
try:
    if run == "entry":
        sys.argv = ["nkerr", *argv]
        nkerr.cli.entry()
    else:
        sys.exit(nkerr.cli.main(argv))
finally:
    print(*(os.environ.get(name, "-") for name in %r), "numpy" in sys.modules,
          file=sys.stderr)
""" % (_BLAS_THREADS,)


@pytest.mark.parametrize("run, preset, want", [
    ("entry", {}, "1 1 1"),
    ("entry", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "4"},
     "2 3 4"),
    ("entry", {"OMP_NUM_THREADS": "2"}, "1 2 1"),
    ("main", {}, "- - -"),
], ids=["unset", "preset", "one-preset", "main-sets-nothing"])
def test_entry_starts_numpy_with_one_blas_thread_unless_the_user_set_a_count(run, preset, want):
    # a fresh interpreter, so the counts are set before anything imports numpy
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _REPORT_THREADS, run,
                           str(_GATED / "reference.json")], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (_GATED / "evolve-reference-t1.txt").read_text(encoding="utf-8")
    assert proc.stderr == f"{want} True\n"


@pytest.mark.parametrize("scenario, code", [("reference.json", 0), ("missing.json", 2)])
def test_entry_exits_with_the_code_of_main(monkeypatch, capsys, scenario, code):
    # entry() is the installed nkerr script's function; it sets the BLAS
    # thread counts of this process's environment, which monkeypatch restores
    for name in _BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(sys, "argv", ["nkerr", "coeffs", str(_GATED / scenario)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("scenario error: cannot read scenario file:")
    else:
        assert out == (_GATED / "coeffs-reference.txt").read_text(encoding="utf-8")


def test_readme_usage_lines_exit_as_written(tmp_path, monkeypatch):
    # each ``nkerr …  # exit N`` line of the README's usage block
    readme = (_GATED.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    runs = [(shlex.split(command), int(code))
            for command, code in re.findall(r"^nkerr (.+?)\s+# exit (\d)", block, re.M)]
    assert {argv[0] for argv, _ in runs} == {"coeffs", "evolve", "sweep", "validate"}
    (tmp_path / "tests").symlink_to(_GATED.parent, target_is_directory=True)
    monkeypatch.chdir(tmp_path)  # the README's paths, from a root that takes --out
    for argv, want in runs:
        assert cli.main(argv, stdout=io.StringIO()) == want, argv


# runs ``cli.main(["coeffs", path])`` on each path in one process, prints the
# [exit code, stdout] of each as JSON, and fails if numpy was loaded
_COEFFS_WITHOUT_NUMPY = """import io, json, sys
from nkerr import cli
runs = []
for path in sys.argv[1:]:
    out = io.StringIO()
    runs.append([cli.main(["coeffs", path], stdout=out), out.getvalue()])
assert "numpy" not in sys.modules, "coeffs loaded numpy"
print(json.dumps(runs))
"""


def test_gated_coeffs_in_a_process_without_numpy():
    # in this process conftest has loaded numpy already, so the corpus test
    # above never runs a path taken only where numpy is absent; this does
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _COEFFS_WITHOUT_NUMPY,
                           *(str(_GATED / f"{s}.json") for s in _GATED_SCENARIOS)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [4 if s == "lossy" else 0, (_GATED / f"coeffs-{s}.txt").read_text(encoding="utf-8")]
        for s in _GATED_SCENARIOS]


@pytest.mark.parametrize("scenario, axis", [("lossy", "dc"), ("reference", "da"), ("complex", "dc"),
                                            ("weak-pump", "dc"), ("large-n", "dc"),
                                            ("near-pole", "dc")])
def test_gated_sweep_csv_matches_the_corpus(tmp_path, scenario, axis):
    opath = tmp_path / "out.csv"
    assert cli.main(["sweep", str(_GATED / f"{scenario}.json"), "--axis", axis, "--lo", "-2",
                     "--hi", "2", "--steps", "41", "--out", str(opath)],
                    stdout=io.StringIO()) == 0
    assert opath.read_bytes() == (_GATED / f"sweep-{scenario}-{axis}.csv").read_bytes(), (
        "the sweep CSV differs from the corpus; its bytes are known to depend on numpy's "
        "complex arithmetic, which differs with the X86_V3 (AVX2/FMA) SIMD group on or off")
