"""Tests of the benchmark's own machinery: spans, statistics, inputs, checks."""

from __future__ import annotations

import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layer_spans  # noqa: E402
import measure  # noqa: E402
import output_checks as checks  # noqa: E402
import run  # noqa: E402
import series_loop  # noqa: E402
import speed_sampler  # noqa: E402
import workload_inputs as inputs  # noqa: E402
from layer_spans import Span  # noqa: E402


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),    # overlaps a: [1, 5] is covered once
        Span("c", 9.0, 12.0, parent=0),   # only [9, 10] lies inside the parent
        Span("leaf", 1.5, 2.5, parent=1),
    ]
    assert layer_spans.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_records_nesting_and_errors():
    tracer = layer_spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner = tracer.wrap("oracle.propagate", inner)
    outer = tracer.wrap("cli.main", lambda x: inner(x) + inner(x))
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    stats = tracer.stats()
    assert stats["cli.main"].calls == 2 and stats["cli.main"].errors == 1
    assert stats["oracle.propagate"].calls == 3 and stats["oracle.propagate"].errors == 1
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1, 3]
    assert set(stats) == set(layer_spans.SPAN_NAMES)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = [float(v) for v in range(100, 0, -1)]
    assert measure.percentile(values, 90.0) == 90.0
    assert measure.percentile(values, 50.0) == 50.0
    assert measure.percentile([3.0], 99.0) == 3.0


def test_child_peak_rss_excludes_the_benchmarks_own(tmp_path):
    held = bytearray(128 * 2**20)
    held[::4096] = b"x" * len(held[::4096])   # touch every page
    run = measure.run_process([sys.executable, "-c", "pass"], {}, str(tmp_path),
                              str(tmp_path / "out"), str(tmp_path / "err"))
    assert run.returncode == 0
    assert 0 < run.peak_rss_mb < 64
    del held


def test_child_past_its_timeout_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "CHILD_TIMEOUT_S", 0.5)
    run = measure.run_process([sys.executable, "-c", "import time; time.sleep(30)"], {},
                              str(tmp_path), str(tmp_path / "out"), str(tmp_path / "err"))
    assert run.returncode == -9 and run.wall_s < 10


def test_ref_units_divide_out_the_machines_speed():
    def samples(speeds):
        """Samples of two loops each, 1000 loop-times of work apart."""
        out, t = [], 0.0
        for loop_s in speeds:
            out.append((t, 2 * loop_s, loop_s))
            t += 2 * loop_s + 1000 * loop_s
        return out

    steady = speed_sampler.ref_units(samples([1e-5] * 40))
    assert steady == pytest.approx(39 * 1000)
    # the machine runs at half speed for the middle third: same work, same units
    drifting = speed_sampler.ref_units(samples([1e-5] * 14 + [2e-5] * 13 + [1e-5] * 13))
    assert drifting == pytest.approx(steady, rel=0.05)


def test_sampler_runs_the_program_and_writes_a_report(tmp_path):
    report = tmp_path / "speed.json"
    code = "import sys, time; time.sleep(0.05); print(sys.argv[1:]); sys.exit(3)"
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "speed_sampler.py"),
                           str(report), "-c", code, "a", "b"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3 and done.stdout == "['a', 'b']\n"
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["samples"] >= 5 and result["ref_units"] > 0


def test_inputs_are_determined_by_the_seed():
    assert inputs.dumps(inputs.series_inputs(7, 50)) == inputs.dumps(inputs.series_inputs(7, 50))
    assert inputs.dumps(inputs.series_inputs(7, 50)) != inputs.dumps(inputs.series_inputs(8, 50))
    assert inputs.dumps(inputs.sweep_input(7)) == inputs.dumps(inputs.sweep_input(7))
    assert inputs.dumps(inputs.sweep_input(7)) != inputs.dumps(inputs.sweep_input(8))
    assert checks.sample_rows(7, 1000) == checks.sample_rows(7, 1000)


def test_inputs_are_valid_scenarios_half_of_them_lossy():
    from nkerr import cli

    docs = inputs.series_inputs(3, 40)
    assert [any(d["gamma"].values()) for d in docs] == [bool(k % 2) for k in range(40)]
    for doc in docs + [inputs.sweep_input(3)[0]]:
        assert inputs.well_conditioned(doc)
        assert cli.scenario_config(json.loads(inputs.dumps(doc))) == \
            series_loop.system_config(doc)


def test_series_check_passes_order_8_and_catches_order_6(monkeypatch):
    configs = [series_loop.system_config(d) for d in inputs.series_inputs(5, 50)]
    tally = checks.check_series(series_loop.run_loop(configs, warmup=2)["rel_errors"])
    assert (tally.attempted, tally.failed) == (50, 0)
    monkeypatch.setattr(series_loop, "SERIES_ORDER", 6)
    assert checks.check_series(series_loop.run_loop(configs, warmup=0)["rel_errors"]).failed
    assert checks.check_series([1e-12, None, 1e-6, float("nan")]).failed == 3


def _small_sweep(tmp_path, steps):
    from nkerr import cli, suscept

    doc, lo, hi = inputs.sweep_input(11)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(inputs.dumps(doc), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", str(scenario), "--axis", "dc", "--lo", repr(lo), "--hi", repr(hi),
                     "--steps", str(steps), "--out", str(out)], stdout=io.StringIO())
    base = series_loop.system_config(doc)

    def reference(value):
        cfg = dataclasses.replace(base, mode_c=dataclasses.replace(base.mode_c, delta=value))
        p = suscept.susceptibility_point(cfg)
        return p.chi1, p.chi3_self, p.chi3_cross

    def check(text):
        return checks.check_sweep(code, text, lo, hi, steps, checks.sample_rows(11, steps),
                                  reference)

    return out.read_text(encoding="utf-8"), check


def test_corrupted_sweep_row_gives_nonzero_fail_frac(tmp_path):
    steps = 101
    text, check = _small_sweep(tmp_path, steps)
    clean = check(text)
    assert clean.failed == 0 and clean.attempted > checks.SWEEP_SAMPLE_ROWS

    lines = text.split("\n")
    k = checks.sample_rows(11, steps)[0] + 1          # a sampled data row
    fields = lines[k].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-9))   # chi1_im off by 1e-9 relative
    corrupted = check("\n".join(lines[:k] + [",".join(fields)] + lines[k + 1:]))
    assert corrupted.failed / corrupted.attempted > 0

    unsampled = next(i for i in range(steps) if i not in checks.sample_rows(11, steps)) + 1
    flagged = lines[:unsampled] + [lines[unsampled][:-1] + "0"] + lines[unsampled + 1:]
    assert check("\n".join(flagged)).failed > 0
    assert check("\n".join(lines[:-2] + [""])).failed > 0   # one row missing


def test_validate_report_check():
    good = [f"criterion {k:02d} name {k}: PASS" for k in range(1, 12)] + ["all criteria passed"]
    assert checks.check_validate(0, "\n".join(good) + "\n").failed == 0
    bad = list(good)
    bad[3] = "criterion 04 name 4: FAIL"
    assert checks.check_validate(1, "\n".join(bad) + "\n").failed == 3


def test_missing_function_is_recorded_absent(monkeypatch):
    from nkerr import perturb

    gone = (("oracle.gone", "oracle", "no_such_function"),
            ("gone.fn", "no_such_module", "fn"))
    monkeypatch.setattr(layer_spans, "SPANS", layer_spans.SPANS + gone)
    original = perturb.build_series
    tracer = layer_spans.Tracer()
    restore, absent = layer_spans.install(tracer)
    try:
        assert {"oracle.gone", "gone.fn"} <= set(absent)
        assert perturb.build_series is not original
        series_loop.chain(series_loop.system_config(inputs.series_inputs(1, 1)[0]))
    finally:
        layer_spans.uninstall(restore)
    assert perturb.build_series is original
    stats = tracer.stats()
    assert stats["perturb.build_series"].calls >= 1
    assert stats["oracle.eigenvalue"].calls >= 1
    assert tracer.series_orders >= 1


def test_untraced_path_does_not_import_the_wrappers():
    code = ("import sys; sys.path[:0] = ['perfbench', 'src']; import run, workloads; "
            "assert 'layer_spans' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        layer_spans.PER_LAYER
