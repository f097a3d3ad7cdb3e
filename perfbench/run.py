"""Benchmark of the nkerr library and CLI.

    python3 perfbench/run.py --workload validate|sweep|series|all \\
        --seed N --seconds S --trace 0|1

It imports ``nkerr`` from the ``src/`` beside ``perfbench/`` and writes only
under ``perfbench/_work/`` (and Python's bytecode caches).  Every input comes from
``--seed`` (see ``workload_inputs.py``); the program sees only those inputs.

Workloads:
  validate  ``python -m nkerr.cli validate --seed N`` in a fresh process: time
            to a checked answer, dominated by the high-precision
            finite-difference oracle.
  sweep     ``nkerr sweep`` of one seeded lossy scenario along ``dc`` over
            100001 points in a fresh process: closed forms and CSV writing.
  series    a process that imports ``nkerr`` once and runs split,
            order-8 series, energy check against the exact eigenvalue and
            coherences on 1000 seeded configurations, half of them lossy.

``--trace 0`` runs the workload as child processes (PYTHONPATH=src, one BLAS
thread), a fixed number of them for a given ``--seconds`` (at least three),
each under ``speed_sampler.py``.  The sampler times a fixed reference loop
every 5 ms inside the process and divides the machine's speed at each moment
out of the wall time; the result is given in seconds at a fixed reference
speed.  The end-to-end metrics:
  work_s       median time of the workload processes at the reference speed,
               imports included (the interpreter's own start is not measured)
  peak_rss_mb  median peak RSS of the workload processes, from ``os.wait4``
  setup_s      median time at the reference speed for a fresh interpreter to
               run ``import nkerr.cli``, timed once before each workload
               process
The table also gives, as measured and without a bound, the median wall time
of the workload processes and of set-up, the rate of work items per wall
second (acceptance criteria, CSV rows, configurations of the series loop
after warm-up) and for series the median and tail time of a configuration.
Wall time has no bound because the shared 2-vCPU machine this benchmark was
built on ran the same process in 2.6 s or 4.8 s minutes apart: over ten
seeds, the middle half of the runs' median wall times spread by 8-23% of
their median, and of their ``work_s`` by 2-8%.

``--trace 1`` runs the workload in this process, alternately untraced and
with spans on the public functions of every ``nkerr`` module, and reports
per-layer calls, self time and errors per traced repetition, plus
``trace.overhead_s`` (traced minus untraced wall time).

Output: a table of metrics with unit, direction and sample count, then, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload, ends
with one such object per workload, and exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
WORKLOAD_NAMES = ("validate", "sweep", "series")

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "work_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# The matrices are 4x4: extra BLAS threads only add start-up and contention.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _row(name: str, value: float, unit: str, better: str, n: int, note: str = "") -> str:
    return f"  {name:34s} {value:>14.6g} {unit:6s} {better + ' is better':16s} n={n}{note}"


def end_to_end(workload, ctx) -> dict:
    """Measure untraced; returns the result object."""
    import measure
    import workloads

    samples, setup, tally = workloads.measure_processes(workload, ctx)
    for s in samples:
        tally.add(s.tally)
    n = len(samples)
    walls = [s.wall_s for s in samples]
    rates = [s.items_per_s for s in samples]
    # Medians over the run's processes, not the fastest: a process that
    # happens to hit a quiet stretch of the machine says little about the rest.
    values = {
        "work_s": (statistics.median([s.work_s for s in samples]), n),
        "peak_rss_mb": (statistics.median([s.peak_rss_mb for s in samples]), n),
        "setup_s": (statistics.median([norm for _, norm in setup]), len(setup)),
    }
    print(f"== {workload.name}: seed {ctx.seed}, {n} workload processes, untraced")
    for name, (value, count) in values.items():
        print(_row(name, value, *END_TO_END[name], count, "  median"))
    print(_row("fail_frac", tally.failed / tally.attempted, "ratio", "lower", tally.attempted,
               f"  ({tally.failed} of {tally.attempted} checks failed)"))
    print(_row("wall_s", statistics.median(walls), "s", "lower", n, "  median, no bound"))
    print(_row("setup_wall_s", statistics.median([wall for wall, _ in setup]), "s", "lower",
               len(setup), "  median, no bound"))
    print(_row("items_per_s", statistics.median(rates), "1/s", "higher", n,
               "  median, no bound"))
    times = [t for s in samples for t in s.item_times]
    if times:
        print(_row("config_p50_ms", 1e3 * measure.percentile(times, 50), "ms", "lower",
                   len(times)))
        tail = measure.tail_percentile(len(times))
        if tail is not None and tail > 50:
            print(_row(f"config_p{tail:g}_ms", 1e3 * measure.percentile(times, tail), "ms",
                       "lower", len(times)))
    for note in tally.notes:
        print(f"  check failed: {note}")
    return _result(tally, {k: v[0] for k, v in values.items()}, END_TO_END)


def per_layer(workload, ctx) -> dict:
    """Measure in-process, untraced and traced; returns the result object."""
    import layer_spans
    import workloads

    run = workloads.measure_layers(workload, ctx)
    values = {}
    for name, st in run.stats.items():
        values[f"{name}.calls"] = st.calls / run.reps
        values[f"{name}.self_s"] = st.self_s / run.reps
        values[f"{name}.errors"] = st.errors / run.reps
    values["suscept.sweep.valid_frac"] = (run.sweep_valid / run.sweep_rows
                                          if run.sweep_rows else 0.0)
    values["perturb.build_series.orders"] = run.series_orders / run.reps
    values["trace.overhead_s"] = statistics.median(run.overheads_s)

    total = sum(st.self_s for st in run.stats.values()) / run.reps
    print(f"== {workload.name}: seed {ctx.seed}, {run.reps} traced repetitions, "
          f"{total:.4g} s traced self time per repetition")
    for name in sorted(run.stats, key=lambda n: -run.stats[n].self_s):
        st = run.stats[name]
        if name in run.absent:
            print(f"  {name:34s} absent: no such function in this checkout")
        elif st.calls:
            share = st.self_s / run.reps / total
            print(f"  {name:34s} calls={st.calls / run.reps:<10g} "
                  f"self_s={st.self_s / run.reps:<12.6g} ({share:6.1%}) "
                  f"errors={st.errors / run.reps:g}")
    for name in ("suscept.sweep.valid_frac", "perturb.build_series.orders", "trace.overhead_s"):
        print(_row(name, values[name], *layer_spans.PER_LAYER[name], run.reps))
    for note in run.tally.notes:
        print(f"  check failed: {note}")
    return _result(run.tally, values, layer_spans.PER_LAYER)


def _result(tally, values: dict, table: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the nkerr library and CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nkerr" / "__init__.py").is_file():
        print(f"perfbench: no nkerr package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    # Pinned before numpy is first imported, here and in every child.
    os.environ.update(THREAD_ENV)
    os.environ["TMPDIR"] = str(work)  # validate writes its scratch CSVs there
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    try:
        import measure
        import workloads

        env = dict(os.environ, PYTHONPATH=str(SRC))
        ctx = workloads.Context(ROOT, work, args.seed, args.seconds, env)
        print("machine: " + ", ".join(f"{k} {v}" for k, v in measure.machine().items()))
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            workload = workloads.WORKLOADS[name](ctx)
            if args.trace:
                results[name] = per_layer(workload, ctx)
            else:
                results[name] = end_to_end(workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps(results))
        return 1 if any(r["failed"] for r in results.values()) else 0
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
