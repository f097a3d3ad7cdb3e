"""Command-line surface: scenario files in, deterministic reports and CSV out.

Scenario files are JSON documents with the layout::

    {
      "modes": {
        "a": {"g_re": 0.01, "g_im": 0.0, "delta": 0.3, "n": 1},
        "b": {"g_re": 1.0,  "g_im": 0.0, "delta": 0.1, "n": 0},
        "c": {"g_re": 0.01, "g_im": 0.0, "delta": 0.5, "n": 1}
      },
      "gamma": {"g1": 0.0, "g2": 0.0, "g3": 0.0}
    }

``gamma`` and each of its rates may be omitted (zero by default).  Each rule
runs once: ``scenario_config`` checks the shape (objects, keys, numbers that
are not bools and fit a float); ``FieldMode`` and ``SystemConfig`` check the
values, and their ValueError becomes a ScenarioError naming the mode or gamma.

``nkerr sweep`` holds only the grid of detunings (``suscept.sweep_grid``, 8
bytes a row).  It evaluates the closed forms on ``SWEEP_CHUNK_ROWS`` rows at
a time (``suscept.sweep_at``) and writes each chunk's text before the next,
so beyond the grid a process holds O(chunk) memory whatever ``--steps`` is.
Every row depends on its own detuning only, so a chunk has the bits of the
same rows of the whole grid's ``Sweep``.  Before ``--out`` is truncated, one
point is evaluated: a term that no grid point changes and that leaves double
range exits 3 there, and ``--out`` keeps its bytes.  The ``%.17g``
conversions take more of its time than the closed forms, so a column whose
bits do not change within a chunk is converted once for the chunk: on a
``dc`` sweep that is chi1 and chi3_self, whose closed forms read only
delta_1 and delta_2, and a row costs 3 conversions instead of 7.  The rows
are cut into contiguous parts of whole chunks, one per CPU the process may
run on (``os.sched_getaffinity``) and no more than there are chunks, and the
parts are evaluated and formatted at the same time.  The process forks a
child for each part after the first: a forked child sees the grid
copy-on-write, so nothing is pickled and nothing is imported again.  A
child calls no BLAS routine (the closed forms are elementwise ufuncs, the
rest is text), so no lock another thread held at the fork is needed; it
writes its part chunk by chunk into an unlinked temporary file and leaves
by ``os._exit``, so no stdio buffer it inherited is flushed twice.  The
parent writes part 0 straight into ``--out``, then reaps the children in
row order and copies each part's bytes in blocks of ``shutil.COPY_BUFSIZE``;
the temporary files together hold the parts after the first.  A child that
fails is an output error (exit 2).  With one CPU, a sweep of one chunk, or a
platform without ``os.fork`` or ``os.sched_getaffinity``, nothing is forked.

Exit codes: 0 success, 1 validation failure, 2 schema error, invalid
arguments (including non-finite ``--lo/--hi/--t`` and a ``--steps`` whose grid
does not fit in memory) or an output file that
cannot be written, 3 domain error (a pole, including a closed form whose
terms leave double range, or a degeneracy), 4 regime refusal (a command that
needs the lossless regime was given decay rates).  ``coeffs`` and ``evolve``
print only finite numbers, as does every valid ``sweep`` row; a sweep's
detuning-independent terms or an ``evolve`` phase beyond double range exit 3.

Importing this module loads only ``errors`` and ``model`` of the package; a
command imports what it runs when it runs: ``coeffs`` loads ``effective``,
``sweep`` loads ``suscept`` and ``perturb``, and ``evolve`` and ``validate``
load ``validate``, which loads every module.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import signal
import sys
import tempfile
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, NoReturn, TextIO

import numpy as np

from .errors import (ConvergenceError, DegeneracyError, NotHermitianError,
                     NotResonantError, PoleError, ScenarioError, TrackingError)
from .model import FieldMode, SystemConfig

if TYPE_CHECKING:
    from . import suscept

_DOMAIN_ERRORS = (PoleError, DegeneracyError, NotResonantError, TrackingError, ConvergenceError)

# Rows evaluated and formatted per write of the sweep CSV; a process holds
# the closed forms and the text of one chunk at a time.
SWEEP_CHUNK_ROWS = 4096

# (start, stop) -> the Sweep of rows [start, stop) of the grid.
_Rows = Callable[[int, int], "suscept.Sweep"]

# A token that is a negative decimal number, exponent allowed: an option's value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _object(value: Any, where: str, required: tuple, optional: tuple = ()) -> dict:
    """``value`` as a JSON object with every ``required`` key and no key beyond ``optional``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    if unknown := set(value) - set(required) - set(optional):
        raise ScenarioError(f"{where} has unknown keys: {sorted(unknown)}")
    if missing := set(required) - set(value):
        raise ScenarioError(f"{where} is missing keys: {sorted(missing)}")
    return value


def _number(value: Any, where: str) -> float:
    """A JSON number, not a bool, as a float; an integer beyond double range is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{where} is an integer outside double range") from None


def _finite_float(text: str) -> float:
    """argparse type for a finite float; nan and inf exit with code 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def scenario_config(doc: Any) -> SystemConfig:
    """Build the configuration of a parsed scenario document (checks: module docstring)."""
    doc = _object(doc, "scenario", ("modes",), ("gamma",))
    modes = _object(doc["modes"], "modes", ("a", "b", "c"))
    built = []
    try:  # a ValueError of the model names the object being built, ``where``
        for label in ("a", "b", "c"):
            where = f"modes.{label}"
            entry = _object(modes[label], where, ("g_re", "g_im", "delta", "n"))
            x = {key: _number(entry[key], f"{where}.{key}") for key in ("g_re", "g_im", "delta")}
            built.append(FieldMode(label, complex(x["g_re"], x["g_im"]), x["delta"], entry["n"]))
        where = "gamma"
        rates = _object(doc.get("gamma", {}), where, (), ("g1", "g2", "g3"))
        gamma = [_number(rates.get(key, 0.0), f"gamma.{key}") for key in ("g1", "g2", "g3")]
        return SystemConfig(*built, gamma)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def load_scenario(path: str) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ScenarioError(f"scenario is not readable JSON: {exc}") from exc
    return scenario_config(doc)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _cmd_coeffs(args, out: TextIO) -> int:
    from . import effective

    config = load_scenario(args.scenario)
    co = effective.coefficients(config)
    report = f"L={_fmt(co.linear)} S={_fmt(co.self_kerr)} K={_fmt(co.cross_kerr)}\n"
    with contextlib.suppress(NotResonantError):  # off resonance: no pure-kerr line
        pure = effective.pure_cross_kerr(config)
        if abs(pure - co.cross_kerr) <= 1e-12 * abs(co.cross_kerr):  # criterion 5's tolerance
            report += f"pure-kerr K={_fmt(pure)} (agrees with the general form)\n"
    out.write(report)
    return 0


def _cmd_sweep(args, out: TextIO) -> int:
    from . import suscept

    config = load_scenario(args.scenario)
    grid = suscept.sweep_grid(args.lo, args.hi, args.steps)

    def rows(start: int, stop: int) -> suscept.Sweep:
        return suscept.sweep_at(config, args.axis, grid[start:stop])

    # an unwritable --out fails before anything is evaluated, and a term that
    # no grid point changes fails on one point before --out loses its bytes
    with open(args.out, "ab"):
        pass
    rows(0, 1)
    with open(args.out, "wb") as fh:
        fh.write(b"axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid\n")
        _write_sweep_rows(fh, rows, len(grid))
    out.write(f"wrote {len(grid)} rows to {args.out}\n")
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or read its affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _write_sweep_rows(fh: BinaryIO, rows: _Rows, n: int) -> None:
    """Write the ``n`` rows to ``fh`` in contiguous parts, evaluated and formatted in parallel.

    Part 0 is written here, every later part in a forked child into an
    unlinked temporary file that is then copied after it (see the module
    docstring).  Raises OSError if a child fails; every child is reaped on
    every path.
    """
    chunks = -(-n // SWEEP_CHUNK_ROWS)
    parts = min(_usable_cpus(), chunks)
    bounds = [k * chunks // parts * SWEEP_CHUNK_ROWS for k in range(parts)] + [n]
    children = []  # (pid, part file, first row, end row) not yet reaped, in row order
    with contextlib.ExitStack() as files:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                part = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    _write_part_and_exit(part, rows, start, stop)
                children.append((pid, part, start, stop))
            _write_row_range(fh, rows, 0, bounds[1])
            while children:
                pid, part, start, stop = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if code != 0:
                    raise OSError(f"writing sweep rows {start}..{stop - 1} failed "
                                  f"in process {pid} (exit code {code})")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            for pid, *_ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _write_part_and_exit(part: BinaryIO, rows: _Rows, start: int, stop: int) -> NoReturn:
    """A forked child's whole life: write rows [start, stop) to ``part``, then exit."""
    code = 1
    try:
        _write_row_range(part, rows, start, stop)
        part.flush()
        code = 0
    finally:
        os._exit(code)


def _write_row_range(fh: BinaryIO, rows: _Rows, start: int, stop: int) -> None:
    """Rows [start, stop), evaluated and formatted one chunk at a time from ``start``."""
    for lo in range(start, stop, SWEEP_CHUNK_ROWS):
        fh.write(_chunk_text(rows(lo, min(lo + SWEEP_CHUNK_ROWS, stop))).encode())


def _chunk_text(result: suscept.Sweep) -> str:
    """The CSV rows of ``result`` as one chunk, each field the text of ``_fmt``.

    A column whose bits are the same on every row is formatted once, into
    the chunk's row template (on a ``dc`` sweep, the four chi1 and chi3_self
    columns); the others go through one %-format per row.  The test compares
    bits, not floats: 0.0 == -0.0, yet they print as "0" and "-0", and a
    lossless sweep mixes both in one column.  The NaN of an invalid row is
    one more bit pattern, so its chunk needs no special case.
    """
    columns = (result.value, result.chi1.real, result.chi1.imag, result.chi3_self.real,
               result.chi3_self.imag, result.chi3_cross.real, result.chi3_cross.imag)
    fields, varying = [], []
    for column in columns:
        bits = column.view(np.int64)
        if (bits == bits[0]).all():
            fields.append(_fmt(column[0]))
        else:
            fields.append("%.17g")
            varying.append(column.tolist())
    valid_row = ",".join([result.axis, *fields, "1\n"])
    invalid_row = f"{result.axis},{fields[0]},,,,,,,0\n"
    ok = result.valid.tolist()
    rows = zip(*varying) if varying else [()] * len(ok)
    head = slice(1 if fields[0] == "%.17g" else 0)  # the value in ``row``, if it varies
    return "".join([valid_row % row if k else invalid_row % row[head]
                    for k, row in zip(ok, rows)])


def _cmd_evolve(args, out: TextIO) -> int:
    from . import validate

    config = load_scenario(args.scenario)
    eff_phase, oracle_phase, diff, bound = validate.phase_comparison(config, args.t)
    out.write(f"t={_fmt(args.t)}\n")
    out.write(f"effective_phase={_fmt(eff_phase)}\n")
    out.write(f"oracle_phase={_fmt(oracle_phase)}\n")
    out.write(f"difference={_fmt(diff)}\n")
    out.write(f"leakage_bound={_fmt(bound)}\n")
    return 0


def _cmd_validate(args, out: TextIO) -> int:
    from . import validate

    report, ok = validate.run_report(args.seed)
    out.write(report)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkerr",
        description="Cross-Kerr response of a four-level atom in the N-configuration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="report the effective L, S, K coefficients")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("sweep", help="sweep a detuning and write susceptibilities as CSV")
    p.add_argument("scenario")
    p.add_argument("--axis", required=True, choices=["da", "db", "dc"])
    p.add_argument("--lo", required=True, type=_finite_float)
    p.add_argument("--hi", required=True, type=_finite_float)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evolve", help="compare effective phase with full propagation")
    p.add_argument("scenario")
    p.add_argument("--t", required=True, type=_finite_float)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=_cmd_validate)

    for command in sub.choices.values():  # argparse alone reads "-1e-3" as an option name
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except NotHermitianError as exc:
        print(f"regime refusal: {exc}", file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
