"""Checks on what each workload produced; failed checks feed ``fail_frac``."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

VALIDATE_CRITERIA = 11
SWEEP_HEADER = "axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid"
SWEEP_SAMPLE_ROWS = 64
SWEEP_RTOL = 1e-12
# The worst relative error of the order-8 series over 9000 generated
# configurations was 1.4e-10; a series cut to order 6 failed about one
# configuration in five at this tolerance.
SERIES_RTOL = 1e-9

_SAMPLE_LANE = 3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes[: max(0, 5 - len(self.notes))]


def check_validate(code: int, text: str) -> Tally:
    """Exit code 0, one PASS line per criterion, and the all-passed summary."""
    t = Tally()
    lines = text.splitlines()
    t.check(code == 0, f"validate exited {code}")
    for k in range(1, VALIDATE_CRITERIA + 1):
        hits = [ln for ln in lines if ln.startswith(f"criterion {k:02d} ")]
        t.check(len(hits) == 1 and hits[0].endswith(": PASS"), f"criterion {k:02d}: {hits}")
    passes = sum(ln.endswith(": PASS") for ln in lines)
    t.check(passes == VALIDATE_CRITERIA and lines[-1:] == ["all criteria passed"],
            f"{passes} PASS lines, last line {lines[-1:]}")
    return t


def sample_rows(seed: int, steps: int) -> list[int]:
    """The sweep rows compared against the library, fixed by the seed."""
    rng = np.random.default_rng([seed, _SAMPLE_LANE])
    return sorted(int(i) for i in rng.choice(steps, size=min(steps, SWEEP_SAMPLE_ROWS),
                                             replace=False))


def _close(a: complex, b: complex, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_sweep(code: int, text: str, lo: float, hi: float, steps: int,
                sample: list[int],
                reference: Callable[[float], tuple[complex, complex, complex]]) -> Tally:
    """Header, row count, valid flags and grid values of every row; the
    sampled rows' susceptibilities against ``reference(value)``."""
    t = Tally()
    t.check(code == 0, f"sweep exited {code}")
    lines = text.split("\n")
    t.check(lines[0] == SWEEP_HEADER, f"header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:-1]]
    t.check(len(rows) == steps and lines[-1] == "", f"{len(rows)} rows, expected {steps}")
    bad = [k for k, r in enumerate(rows) if len(r) != 9 or r[0] != "dc" or r[8] != "1"]
    t.check(not bad, f"{len(bad)} rows not valid 'dc' rows, first {bad[:1]}")
    grid = np.linspace(lo, hi, steps)
    try:
        values = np.array([float(r[1]) for r in rows])
        on_grid = values.shape == grid.shape and bool(np.array_equal(values, grid))
    except (ValueError, IndexError):
        on_grid = False
    t.check(on_grid, "value column is not the requested grid")
    for k in sample:
        try:
            r = rows[k]
            got = [complex(float(r[i]), float(r[i + 1])) for i in (2, 4, 6)]
            want = reference(float(grid[k]))
            ok = all(_close(g, w, SWEEP_RTOL) for g, w in zip(got, want))
        except (IndexError, ValueError):
            ok = False
        t.check(ok, f"row {k} differs from the library")
    return t


def check_series(rel_errors: list[float | None]) -> Tally:
    """One check per configuration: it ran, and its energy matched."""
    t = Tally()
    for k, err in enumerate(rel_errors):
        t.check(err is not None and math.isfinite(err) and err <= SERIES_RTOL,
                f"config {k}: relative error {err}")
    return t
