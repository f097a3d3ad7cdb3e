"""Runs a Python program and measures its time in units of the machine's speed.

    python perfbench/speed_sampler.py REPORT.json -m MODULE [ARG ...]
    python perfbench/speed_sampler.py REPORT.json -c CODE [ARG ...]
    python perfbench/speed_sampler.py REPORT.json SCRIPT.py [ARG ...]

The program runs in this process, as ``python -m MODULE``, ``python -c CODE``
or ``python SCRIPT.py`` would run it, and this process exits with its exit
code.  Every ``SAMPLE_S`` seconds of wall time a SIGALRM handler runs a fixed
pure-Python reference loop twice and times the second run: the first brings
the loop back into the caches, which the program has filled with its own
data.  A cold loop slowed more under load than the programs did, and divided
up to 10% too much out of the sweep on a busy machine.  When the program
ends, REPORT.json gets:

  ref_units  the program's wall time in units of the reference loop: each
             interval between two samples divided by the loop's time at that
             moment (the median of the ``2 * WINDOW`` samples around it),
             summed.  The time of the samples themselves is left out.
  samples    how many samples were taken

On a shared machine whose speed drifts by tens of percent over seconds and
minutes, the reference loop slows with the program, so ``ref_units`` repeats
from run to run where ``wall_s`` does not.  ``ref_units * LOOP_S`` is the
program's time in seconds at a fixed reference speed.  The handler costs
about 2% of the program's time.  The interpreter's own start, before this
script runs, is not measured; this script imports only what the interpreter
has already loaded before the program starts.
"""

from __future__ import annotations

import signal
import sys
import time

SAMPLE_S = 0.005
WINDOW = 5
REF_ITERATIONS = 200
# Seconds per reference loop at the reference speed: about the warm loop's
# time on the 2-vCPU Xeon the benchmark was built on, at its quietest
# (18-21 microseconds).
LOOP_S = 20e-6


def reference_loop() -> int:
    """Fixed interpreter work: 18-45 microseconds on the 2-vCPU Xeon the benchmark was built on."""
    acc = 0
    slots: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        acc += (i * i) % 7
        slots[i & 15] = acc
    return acc


def ref_units(samples: list[tuple[float, float, float]]) -> float:
    """Wall time between samples, in reference-loop times.

    A sample is (start, time spent sampling, time of the timed loop).
    """
    import statistics

    loop_times = [loop for _, _, loop in samples]
    units = 0.0
    for k in range(1, len(samples)):
        speed = statistics.median(loop_times[max(0, k - WINDOW):k + WINDOW])
        prev_start, prev_spent, _ = samples[k - 1]
        units += (samples[k][0] - prev_start - prev_spent) / speed
    return units


def run(report_path: str, target: list[str]) -> int:
    samples: list[tuple[float, float, float]] = []

    def sample(*_) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        reference_loop()
        t2 = time.perf_counter()
        samples.append((t0, t2 - t0, t2 - t1))

    kind = target[0] if target[0] in ("-m", "-c") else "script"
    sys.argv = target[1:] if kind == "-m" else ["-c", *target[2:]] if kind == "-c" else target
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        if kind == "-c":
            exec(compile(target[1], "<string>", "exec"), {"__name__": "__main__"})
        else:
            import runpy

            if kind == "-m":
                runpy.run_module(target[1], run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(target[0], run_name="__main__")
        code = 0
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        sample()
        import json

        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"ref_units": ref_units(samples), "samples": len(samples)}, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or (sys.argv[2] in ("-m", "-c") and len(sys.argv) < 4):
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1], sys.argv[2:]))
