"""Child processes with their wall time and peak RSS, summary statistics, machine facts."""

from __future__ import annotations

import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

CHILD_TIMEOUT_S = 150.0
# candidate percentiles, highest first
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class ProcessRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int


# Forks one child, waits for it and writes "<wall s> <peak RSS KiB> <exit
# code>" to the file descriptor given as its first argument.  The benchmark
# does not spawn workload processes itself: Linux keeps in a child's
# ru_maxrss the peak RSS of the address space it had before exec, which for
# a child of this process is this process's own (the sweep check alone holds
# over 100 MB), so children are forked from this small interpreter instead.
_LAUNCHER = """\
import os, sys, time
report = int(sys.argv[1])
os.set_inheritable(report, False)
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(report, f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}".encode())
"""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], env: dict[str, str], cwd: str, stdout_path: str,
                stderr_path: str) -> ProcessRun:
    """Run one child to completion; wall time includes process start.

    Peak RSS is the child's own, from ``os.wait4`` in a small launcher
    (``RUSAGE_CHILDREN`` is a running maximum over every child reaped so
    far).  The launcher and the child form a process group, which is killed
    if it is still running after ``CHILD_TIMEOUT_S`` or if this process is
    interrupted; the launcher is always reaped.
    """
    read_end, write_end = os.pipe()
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _LAUNCHER, str(write_end), *argv],
                stdout=out, stderr=err, env=env, cwd=cwd, pass_fds=(write_end,),
                start_new_session=True)
        os.close(write_end)
        write_end = -1
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        report = os.read(read_end, 256).split()
    finally:
        os.close(read_end)
        if write_end >= 0:
            os.close(write_end)
    if len(report) != 3:  # the launcher was killed
        return ProcessRun(time.perf_counter() - start, 0.0, proc.returncode or -1)
    return ProcessRun(float(report[0]), int(report[1]) / 1024.0, int(report[2]))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))  # 99.9 * 10000 / 100 is not exact


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of ``n`` samples beyond it."""
    for p in _PERCENTILES:
        if n - _rank(p, n) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(p, len(values)) - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    import numpy as np

    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError):
        return "unknown"


def machine() -> dict[str, str]:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "openblas": _openblas_version(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": _cpu_model(),
    }
