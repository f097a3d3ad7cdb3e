"""Spans at the public boundaries of the ``nkerr`` modules, for the traced run.

A traced run replaces each public function listed in ``SPANS`` by a wrapper
on its defining module.  In-package callers look these names up on the
module at call time (``oracle.fd_extract(...)``, or a bare global inside the
module itself), so the wrapper sees every call.  Spans are kept in memory
and reduced to per-span call counts, self times and errors when the run
ends.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (span name, module under nkerr, attribute)
SPANS: tuple[tuple[str, str, str], ...] = (
    ("model.split", "model", "split"),
    ("perturb.dressed_basis", "perturb", "dressed_basis"),
    ("perturb.build_series", "perturb", "build_series"),
    ("perturb.evaluate_energy", "perturb", "evaluate_energy"),
    ("effective.coefficients", "effective", "coefficients"),
    ("suscept.susceptibility_point", "suscept", "susceptibility_point"),
    ("suscept.sweep", "suscept", "sweep"),
    ("suscept.coherences", "suscept", "coherences"),
    ("oracle.exact_eigensystem", "oracle", "exact_eigensystem"),
    ("oracle.track_ground", "oracle", "track_ground"),
    ("oracle.propagate", "oracle", "propagate"),
    ("oracle.fd_extract", "oracle", "fd_extract"),
    ("validate.run_all", "validate", "run_all"),
    ("cli.main", "cli", "main"),
)
# The callables returned by ``oracle.ground_eigenvalue_function``: the
# high-precision lane (``dps`` set) and the double-precision one.
HP_EIGENVALUE = "oracle.hp_eigenvalue"
EIGENVALUE = "oracle.eigenvalue"
SPAN_NAMES = tuple(name for name, _, _ in SPANS) + (HP_EIGENVALUE, EIGENVALUE)

# Per-layer metrics reported by a traced run: name -> (unit, better).
# Each value is per traced repetition of the workload.
PER_LAYER: dict[str, tuple[str, str]] = {
    f"{name}.{stat}": (unit, "lower")
    for name in SPAN_NAMES
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
} | {
    "suscept.sweep.valid_frac": ("ratio", "higher"),
    "perturb.build_series.orders": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: bool = False


@dataclass(frozen=True)
class SpanStats:
    calls: int
    self_s: float
    errors: int


class Tracer:
    """Records nested spans of one thread and a few work counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.series_orders = 0  # (p, q) entries requested from build_series
        self.sweep_rows = 0
        self.sweep_valid = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    def stats(self) -> dict[str, SpanStats]:
        """Calls, self time and errors per span name, over every name in SPAN_NAMES."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        errors = dict.fromkeys(SPAN_NAMES, 0)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            self_s[span.name] += own
            errors[span.name] += span.error
        return {n: SpanStats(calls[n], self_s[n], errors[n]) for n in SPAN_NAMES}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def _series_orders(max_order) -> int:
    """(p, q) entries with 1 <= p + q <= max_order that build_series fills."""
    return max_order * (max_order + 3) // 2 if isinstance(max_order, int) and max_order > 0 else 0


def install(tracer: Tracer) -> tuple[list[tuple[object, str, object]], list[str]]:
    """Wrap every span's function; returns (what to restore, absent span names).

    A module or function that no longer exists is recorded as absent and its
    span stays at zero calls.
    """
    restore: list[tuple[object, str, object]] = []
    absent: list[str] = []

    def patch(module, attr, wrapper):
        restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def lookup(modname: str, attr: str):
        try:
            module = importlib.import_module(f"nkerr.{modname}")
        except ImportError:
            return None, None
        fn = getattr(module, attr, None)
        return (module, fn) if callable(fn) else (None, None)

    def traced_factory(factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            dps = kwargs.get("dps", args[1] if len(args) > 1 else None)
            return tracer.wrap(EIGENVALUE if dps is None else HP_EIGENVALUE,
                               factory(*args, **kwargs))
        return wrapper

    try:
        for name, modname, attr in SPANS:
            module, fn = lookup(modname, attr)
            if fn is None:
                absent.append(name)
                continue
            wrapped = tracer.wrap(name, fn)
            if name == "perturb.build_series":
                wrapped = _counting_series(tracer, wrapped)
            elif name == "suscept.sweep":
                wrapped = _counting_sweep(tracer, wrapped)
            patch(module, attr, wrapped)

        module, factory = lookup("oracle", "ground_eigenvalue_function")
        if factory is None:
            absent += [HP_EIGENVALUE, EIGENVALUE]
        else:
            patch(module, "ground_eigenvalue_function", traced_factory(factory))
    except BaseException:
        uninstall(restore)
        raise
    return restore, absent


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def _counting_series(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.series_orders += _series_orders(
            args[2] if len(args) > 2 else kwargs.get("max_order"))
        return fn(*args, **kwargs)
    return wrapper


def _counting_sweep(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rows = fn(*args, **kwargs)
        tracer.sweep_rows += len(rows)
        tracer.sweep_valid += sum(1 for row in rows if row.valid)
        return rows
    return wrapper
