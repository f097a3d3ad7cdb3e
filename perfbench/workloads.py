"""The three workloads and the two ways of running them.

``measure_processes`` runs a workload as fresh child processes, each under
``speed_sampler.py`` (the end-to-end metrics); ``measure_layers`` runs it in
this process, alternately untraced and traced (the per-layer metrics).  Only
``measure_layers`` imports the span wrappers.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import measure
import output_checks as checks
import speed_sampler
import workload_inputs as inputs

SAMPLER = Path(__file__).resolve().parent / "speed_sampler.py"

MIN_SAMPLES = 3
# Seconds one workload process, its set-up and its output check take on the
# seed code (2-vCPU Xeon under its usual shared load): each workload was
# sized to about this.  It fixes how many processes a run makes, so that
# every run's medians are taken over the same number of processes whatever
# the speed of the code under test.
PROCESS_S = 5.0
# A run on a heavily loaded machine stops early, after MIN_SAMPLES, once it
# has taken this many times ``--seconds``, so that every run of the
# benchmark stays within its time budget.
OVERRUN = 1.3


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    env: dict[str, str]


@dataclass
class Sample:
    """One workload process."""

    wall_s: float
    work_s: float          # wall time at the reference speed, see speed_sampler.py
    peak_rss_mb: float
    items_per_s: float
    tally: checks.Tally
    item_times: list[float] = field(default_factory=list)


class Validate:
    """``nkerr validate --seed <seed>``; an item is one acceptance criterion."""

    name = "validate"

    def __init__(self, ctx: Context) -> None:
        self.args = ["validate", "--seed", str(ctx.seed)]

    def argv(self) -> list[str]:
        return ["-m", "nkerr.cli", *self.args]

    def finish(self, run: measure.ProcessRun, work_s: float, stdout: str) -> Sample:
        return Sample(run.wall_s, work_s, run.peak_rss_mb, checks.VALIDATE_CRITERIA / run.wall_s,
                      checks.check_validate(run.returncode, stdout))

    def run_in_process(self):
        from nkerr import cli

        out = io.StringIO()
        return cli.main(self.args, stdout=out), out.getvalue()

    def check(self, output) -> checks.Tally:
        return checks.check_validate(*output)


class Sweep:
    """``nkerr sweep`` of one seeded lossy scenario; an item is one CSV row."""

    name = "sweep"

    def __init__(self, ctx: Context) -> None:
        self.doc, self.lo, self.hi = inputs.sweep_input(ctx.seed)
        scenario = ctx.work / "scenario.json"
        scenario.write_text(inputs.dumps(self.doc), encoding="utf-8")
        self.csv = ctx.work / "sweep.csv"
        self.sample = checks.sample_rows(ctx.seed, inputs.SWEEP_STEPS)
        self.args = ["sweep", str(scenario), "--axis", inputs.SWEEP_AXIS,
                     "--lo", repr(self.lo), "--hi", repr(self.hi),
                     "--steps", str(inputs.SWEEP_STEPS), "--out", str(self.csv)]
        self._base = None

    def argv(self) -> list[str]:
        return ["-m", "nkerr.cli", *self.args]

    def finish(self, run: measure.ProcessRun, work_s: float, stdout: str) -> Sample:
        return Sample(run.wall_s, work_s, run.peak_rss_mb, inputs.SWEEP_STEPS / run.wall_s,
                      self.check(run.returncode))

    def run_in_process(self):
        from nkerr import cli

        return cli.main(self.args, stdout=io.StringIO())

    def check(self, code: int) -> checks.Tally:
        # removed once read, so a run that writes nothing cannot pass on an old file
        text = self.csv.read_text(encoding="utf-8") if self.csv.exists() else ""
        self.csv.unlink(missing_ok=True)
        return checks.check_sweep(code, text, self.lo, self.hi, inputs.SWEEP_STEPS,
                                  self.sample, self.reference)

    def reference(self, value: float) -> tuple[complex, complex, complex]:
        from nkerr import suscept
        from series_loop import system_config

        if self._base is None:
            self._base = system_config(self.doc)
        cfg = dataclasses.replace(
            self._base, mode_c=dataclasses.replace(self._base.mode_c, delta=value))
        p = suscept.susceptibility_point(cfg)
        return p.chi1, p.chi3_self, p.chi3_cross


class Series:
    """The library chain over seeded configurations; an item is one configuration."""

    name = "series"

    def __init__(self, ctx: Context) -> None:
        self.docs = inputs.series_inputs(ctx.seed)
        self.path = ctx.work / "configs.json"
        self.path.write_text(inputs.dumps(self.docs), encoding="utf-8")
        self.script = str(ctx.root / "perfbench" / "series_loop.py")
        self._configs = None

    def argv(self) -> list[str]:
        return [self.script, str(self.path)]

    def finish(self, run: measure.ProcessRun, work_s: float, stdout: str) -> Sample:
        tally = checks.Tally()
        tally.check(run.returncode == 0, f"series loop exited {run.returncode}")
        try:
            result = json.loads(stdout)
        except json.JSONDecodeError:
            tally.check(False, "series loop printed no result")
            return Sample(run.wall_s, work_s, run.peak_rss_mb, 0.0, tally)
        tally.add(self.check(result))
        times = result["times_s"]
        return Sample(run.wall_s, work_s, run.peak_rss_mb, len(times) / result["loop_s"], tally,
                      times)

    def run_in_process(self):
        import series_loop

        if self._configs is None:
            self._configs = [series_loop.system_config(d) for d in self.docs]
        return series_loop.run_loop(self._configs, series_loop.SERIES_WARMUP)

    def check(self, result) -> checks.Tally:
        return checks.check_series(result["rel_errors"])


WORKLOADS = {w.name: w for w in (Validate, Sweep, Series)}


def _sampled(ctx: Context, argv: list[str], stem: str,
             tally: checks.Tally) -> tuple[measure.ProcessRun, float]:
    """Run ``argv`` (arguments to ``python``) under ``speed_sampler.py``.

    Returns the run and its time in seconds at the reference speed; the
    child's output goes to ``<stem>.out`` and ``<stem>.err`` in ``ctx.work``.
    """
    report = ctx.work / f"{stem}.speed.json"
    report.unlink(missing_ok=True)
    run = measure.run_process([sys.executable, str(SAMPLER), str(report), *argv], ctx.env,
                              str(ctx.root), str(ctx.work / f"{stem}.out"),
                              str(ctx.work / f"{stem}.err"))
    try:
        units = json.loads(report.read_text(encoding="utf-8"))["ref_units"]
    except (OSError, ValueError, KeyError):
        tally.check(False, f"{stem} process wrote no speed report")
        units = 0.0
    return run, units * speed_sampler.LOOP_S


def _setup(ctx: Context, tally: checks.Tally) -> tuple[float, float]:
    """A fresh interpreter importing ``nkerr.cli``: wall time, time at the reference speed."""
    run, setup_s = _sampled(ctx, ["-c", "import nkerr.cli"], "setup", tally)
    tally.check(run.returncode == 0, f"import nkerr.cli exited {run.returncode}")
    return run.wall_s, setup_s


def measure_processes(
        workload, ctx: Context) -> tuple[list[Sample], list[tuple[float, float]], checks.Tally]:
    """Run the workload as a fixed number of child processes, set by ``ctx.seconds``.

    Returns the samples, the set-up times (wall, at the reference speed) and
    the set-up checks.  One set-up is timed before each workload process, so
    that set-up is sampled across the whole run rather than in one burst; an
    untimed one first writes the bytecode caches.
    """
    tally = checks.Tally()
    _setup(ctx, tally)
    samples: list[Sample] = []
    setup: list[tuple[float, float]] = []
    count = max(MIN_SAMPLES, round(ctx.seconds / PROCESS_S))
    start = time.perf_counter()
    while len(samples) < count:
        if (len(samples) >= MIN_SAMPLES
                and time.perf_counter() - start > OVERRUN * ctx.seconds):
            break
        setup.append(_setup(ctx, tally))
        run, work_s = _sampled(ctx, workload.argv(), workload.name, tally)
        stdout = (ctx.work / f"{workload.name}.out").read_text(encoding="utf-8")
        samples.append(workload.finish(run, work_s, stdout))
    return samples, setup, tally


@dataclass
class LayerRun:
    reps: int
    stats: dict          # span name -> layer_spans.SpanStats, summed over reps
    absent: list[str]
    series_orders: int
    sweep_rows: int
    sweep_valid: int
    overheads_s: list[float]
    tally: checks.Tally


def measure_layers(workload, ctx: Context) -> LayerRun:
    """After one warm-up run, alternate untraced and traced in-process runs
    until ``ctx.seconds`` would be exceeded."""
    import layer_spans

    totals = {name: [0, 0.0, 0] for name in layer_spans.SPAN_NAMES}
    tally = checks.Tally()
    overheads = []
    orders = rows = valid = 0
    # first run untimed: it pays one-off costs (lazy imports, heap growth)
    tally.add(workload.check(workload.run_in_process()))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        output = workload.run_in_process()
        untraced = time.perf_counter() - t0
        tally.add(workload.check(output))

        tracer = layer_spans.Tracer()
        restore, absent = layer_spans.install(tracer)
        try:
            t0 = time.perf_counter()
            output = workload.run_in_process()
            traced = time.perf_counter() - t0
        finally:
            layer_spans.uninstall(restore)
        tally.add(workload.check(output))

        overheads.append(traced - untraced)
        for name, st in tracer.stats().items():
            acc = totals[name]
            acc[0] += st.calls
            acc[1] += st.self_s
            acc[2] += st.errors
        orders += tracer.series_orders
        rows += tracer.sweep_rows
        valid += tracer.sweep_valid
        if time.perf_counter() - start + untraced + traced > ctx.seconds:
            break
    stats = {n: layer_spans.SpanStats(*acc) for n, acc in totals.items()}
    return LayerRun(len(overheads), stats, absent, orders, rows, valid, overheads, tally)
