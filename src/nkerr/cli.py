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

``nkerr sweep`` holds one chunk of ``SWEEP_CHUNK_ROWS`` rows whatever
``--steps`` is.  Each chunk asks ``suscept.sweep_grid`` for its own detunings,
evaluates the closed forms there (``suscept.sweep_at``) and writes its text
before the next.  A grid row's bits depend on its index only, and a row of the
closed forms on its own detuning only, so a chunk has the bits of the same
rows of the whole grid's ``Sweep``, and the CSV has the same bytes at any
chunk size.  ``--lo``, ``--hi`` and ``--steps`` are checked, on the grid's
first row, before ``--out`` is touched.  Before ``--out`` is truncated, one
point is evaluated: a term that no grid point changes and that leaves double
range exits 3 there, and ``--out`` keeps its bytes, or is not made where there
was none.  The ``%.17g`` conversions take more of its time than the closed
forms, so a column whose bits do not change within a chunk is converted once
for the chunk (``_chunk_text``): on a ``dc`` sweep a row costs 3 conversions
instead of 7.  The rows are cut into contiguous parts of whole chunks, one per
CPU the process may run on (``os.sched_getaffinity``) and no more than there
are chunks, and the parts are evaluated and formatted at the same time.  The
process forks a child for each part after the first: a child computes its own
rows of the grid from the bounds it inherits, so nothing is pickled and
nothing is imported again.  It writes its part chunk by chunk into an unlinked
temporary file of its own and leaves by ``os._exit``, so no stdio buffer it
inherited is flushed twice.  A child inherits only the thread that forked it,
and the ``nkerr`` process has no other: ``entry`` starts numpy with one BLAS
thread unless the user set a count.  The process writes part 0 straight into
``--out``, then reaps the children in row order and copies each part after it
in blocks of ``shutil.COPY_BUFSIZE``; the temporary files together hold the
parts after the first.  On every path it kills and reaps each child still
running when it stops.  A child that fails is an output error (exit 2).  With
one CPU, a sweep of one chunk, or a platform without ``os.fork`` or
``os.sched_getaffinity``, nothing is forked.

Exit codes: 0 success, 1 validation failure, 2 schema error, invalid
arguments (including non-finite ``--lo/--hi/--t`` and a ``--steps`` past
``sys.maxsize // 8``), an output file that cannot be written or a forked
child that fails, 3 domain error (any other error of the package, such as a
pole, including a closed form whose terms leave double range, or a
degeneracy), 4 regime refusal (a command that needs the lossless regime was
given decay rates).  ``coeffs`` and ``evolve``
print only finite numbers, as does every valid ``sweep`` row; a sweep's
detuning-independent terms or an ``evolve`` phase beyond double range exit 3.

Importing this module loads only ``errors`` and ``model`` of the package, no
numpy, and none of ``tempfile``, ``shutil`` and ``signal``, which ``sweep``
imports as it writes its rows; a command imports what it runs when it runs:
``coeffs`` loads ``effective`` and still no numpy (it computes in Python
floats), ``sweep`` loads ``suscept`` (not ``perturb``), ``evolve`` loads
``effective``, ``oracle`` and ``perturb``, and ``validate`` loads every
module; those three load numpy.
Under ``python -m nkerr.cli`` this file runs once: the running ``__main__``
module is registered as ``nkerr.cli`` before the command runs, so
``validate``'s import of ``cli`` (criterion 11 drives ``cli.main``) finds it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, NoReturn, TextIO

from .errors import NKerrError, NotHermitianError, NotResonantError, ScenarioError
from .model import FieldMode, SystemConfig, _finite

if TYPE_CHECKING:
    from . import suscept

# Rows evaluated and formatted per write of the sweep CSV; a process holds one
# chunk.  A 100001-row sweep peaked at 32.1 MB RSS (``os.wait4``, 2 CPUs) with
# 4096 rows, 30.5 with 2048, 29.7 with 1024, 29.3 with 512 and 29.2 with 256,
# where a chunk peaks at 0.27 MB (tracemalloc) on a ``dc`` sweep and 0.37 MB on
# ``da``, where all seven columns vary; each chunk adds ``sweep_at``'s fixed
# cost of about 0.1 ms.
SWEEP_CHUNK_ROWS = 512

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
    if (number := _finite(value, float)) is None:
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return number


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
        # criterion 5's rule, validate._Checker.close at rel 1e-12, less its
        # finite-number test: both values passed model.check_finite in effective
        if abs(pure - co.cross_kerr) <= 1e-12 * max(abs(co.cross_kerr), abs(pure)):
            report += f"pure-kerr K={_fmt(pure)} (agrees with the general form)\n"
    out.write(report)
    return 0


def _cmd_sweep(args, out: TextIO) -> int:
    from . import suscept

    config = load_scenario(args.scenario)
    first = suscept.sweep_grid(args.lo, args.hi, args.steps, 0, 1)  # checks lo, hi and steps

    def rows(start: int, stop: int) -> suscept.Sweep:
        grid = suscept.sweep_grid(args.lo, args.hi, args.steps, start, stop)
        return suscept.sweep_at(config, args.axis, grid)

    # an unwritable --out fails before anything is evaluated, and a term that
    # no grid point changes fails on one point before --out loses its bytes,
    # or, where there was no --out, before an empty one is left behind
    created = not os.path.lexists(args.out)
    with open(args.out, "ab"):
        pass
    try:
        suscept.sweep_at(config, args.axis, first)
    except BaseException:
        if created:
            os.unlink(args.out)
        raise
    with open(args.out, "wb") as fh:
        fh.write(b"axis,value,chi1_re,chi1_im,chi3s_re,chi3s_im,chi3c_re,chi3c_im,valid\n")
        _write_sweep_rows(fh, rows, args.steps)
    out.write(f"wrote {args.steps} rows to {args.out}\n")
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or read its affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _write_sweep_rows(fh: BinaryIO, rows: _Rows, n: int) -> None:
    """Write the ``n`` rows to ``fh`` in contiguous parts, evaluated and formatted in parallel.

    Part 0 is written here, every later part by a forked child into an
    unlinked temporary file that is then copied after it (see the module
    docstring).  Raises OSError if a child fails; every child is reaped on
    every path.
    """
    import shutil
    import signal
    import tempfile

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
    one more bit pattern, so its chunk needs no special case; a row is
    written as invalid where its pole code is not 0.
    """
    columns = (result.value, result.chi1.real, result.chi1.imag, result.chi3_self.real,
               result.chi3_self.imag, result.chi3_cross.real, result.chi3_cross.imag)
    fields, varying = [], []
    for column in columns:
        bits = column.view("int64")
        if (bits == bits[0]).all():
            fields.append(_fmt(column[0]))
        else:
            fields.append("%.17g")
            varying.append(column.tolist())
    valid_row = ",".join([result.axis, *fields, "1\n"])
    invalid_row = f"{result.axis},{fields[0]},,,,,,,0\n"
    poles = result.pole.tolist()
    rows = zip(*varying) if varying else [()] * len(poles)
    head = slice(1 if fields[0] == "%.17g" else 0)  # the value in ``row``, if it varies
    return "".join([invalid_row % row[head] if pole else valid_row % row
                    for pole, row in zip(poles, rows)])


def _cmd_evolve(args, out: TextIO) -> int:
    from . import oracle

    config = load_scenario(args.scenario)
    eff_phase, oracle_phase, diff, bound = oracle.phase_comparison(config, args.t)
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
    except NKerrError as exc:  # every other error of the package is a domain error
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry of the ``nkerr`` script and of ``python -m nkerr.cli``.

    It sets each BLAS thread count that the user left unset to 1 before a
    command imports numpy: no computation here gains from BLAS threads, and a
    pool costs every process that starts one.  ``main`` sets nothing.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(main())


if __name__ == "__main__":
    # under ``python -m``, ``validate``'s import of this module finds it here
    # instead of executing this file a second time; ``runpy.run_module``
    # without ``alter_sys`` runs it in a namespace of no module, and then
    # ``sys.modules["__main__"]`` is its caller, which is not registered
    if vars(sys.modules[__name__]) is globals():
        sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    entry()
