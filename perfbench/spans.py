"""Spans and counters recorded from outside the apclust package.

The tracer wraps public functions of the package's modules (the layers
cli, pipeline, geo, core and units). A wrapped call records a span: name,
start, end, the span that caused it (the innermost open span of the same
thread, or of the main thread for a worker thread with nothing open) and
the id of the clustering cell it belongs to. Hot inner calls, such as the
point-in-polygon test and the per-iteration message updates, get counters
instead of spans, because even a counting wrapper costs a measurable share
of the run. Spans stay in memory and are written out once, at exit.

A function the package no longer has is skipped when wrappers are
installed and listed in ``Tracer.absent``; the metrics built on it are then
reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
import types
from dataclasses import asdict, dataclass, field

# A cell is one clustering run: it opens at run_apc and closes when
# build_units returns in the same thread.
CELL_OPEN = "core.run_apc"
CELL_CLOSE = "units.build_units"


def _n_items(args, kwargs, result) -> dict:
    return {"points": len(args[0])}


def _ingest_rows(args, kwargs, result) -> dict:
    return {"rows": result.n_rows}


def _apc_result(args, kwargs, result) -> dict:
    return {
        "n": len(args[0]),
        "iterations": result.iterations_run,
        "converged": bool(result.converged),
        "net_similarity": float(result.net_similarity),
    }


def _written_bytes(args, kwargs, result) -> dict:
    path = args[-1] if len(args) >= 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, function, span name, extra fields from the arguments and result)
SPAN_POINTS = [
    ("cli", "main", "cli.main", None),
    ("pipeline", "run_sweep", "pipeline.run_sweep", None),
    ("pipeline", "ingest_crashes", "pipeline.ingest", _ingest_rows),
    ("pipeline", "export_geojson", "pipeline.export", _written_bytes),
    ("pipeline", "export_summary", "pipeline.export", _written_bytes),
    ("geo", "project", "geo.project", _n_items),
    ("geo", "polygonize", "geo.polygonize", None),
    ("geo", "unproject", "geo.unproject", None),
    ("core", "run_apc", CELL_OPEN, _apc_result),
    ("core", "build_similarity", "core.similarity", None),
    ("core", "apply_preference", "core.preference", None),
    ("core", "run_apc_on_matrix", "core.message_passing", None),
    ("core", "decide_exemplars", "core.decide_exemplars", None),
    ("core", "net_similarity", "core.net_similarity", None),
    ("units", "build_units", CELL_CLOSE, None),
    ("units", "count_intersections", "units.count", None),
    ("units", "derive_meso_threshold", "units.derive_threshold", None),
]

# The two per-iteration message updates: timed in total, and paired into one
# sample per iteration (responsibility start to availability end).
ITERATION_OPEN = ("core", "update_responsibilities", "core.responsibility")
ITERATION_CLOSE = ("core", "update_availabilities", "core.availability")
CONTAINS = ("geo", "contains", "units.contains")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None
    thread: int
    extra: dict = field(default_factory=dict)


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._cells = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self.busy_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.iteration_s: list[float] = []
        # itertools.count advances atomically under the interpreter lock, so
        # counts from concurrent sweep cells are never lost.
        self._contains_calls = itertools.count()
        self._contains_hits = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
            self._local.cell = None
        return stack

    def span(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = stack[-1] if stack else None
            if name == CELL_OPEN:
                self._local.cell = next(self._cells)
            span_id = next(self._ids)
            cell = self._local.cell
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                if name == CELL_CLOSE:
                    self._local.cell = None
            fields = extra(args, kwargs, result) if extra else {}
            self.spans.append(Span(span_id, name, start, end, parent, cell, threading.get_ident(), fields))
            return result

        return wrapper

    def timed_counter(self, name: str, fn, closes_iteration: bool = False):
        self.busy_s[name] = 0.0
        self.calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self.clock()
            result = fn(*args, **kwargs)
            end = self.clock()
            with self._lock:
                self.busy_s[name] += end - start
                self.calls[name] += 1
            if closes_iteration:
                opened = getattr(self._local, "iteration_start", None)
                if opened is not None:
                    self.iteration_s.append(end - opened)
                    self._local.iteration_start = None
            else:
                self._local.iteration_start = start
            return result

        return wrapper

    def hit_counter(self, fn):
        calls, hits = self._contains_calls, self._contains_hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            next(calls)
            if result:
                next(hits)
            return result

        return wrapper

    def record(self) -> dict:
        """Everything the tracer holds, as plain data for the result file."""
        return {
            "spans": [asdict(s) for s in self.spans],
            "absent": sorted(self.absent),
            "busy_s": self.busy_s,
            "calls": self.calls,
            "iteration_s": self.iteration_s,
            "contains_calls": _peek(self._contains_calls),
            "contains_hits": _peek(self._contains_hits),
        }


def _peek(counter) -> int:
    return int(repr(counter)[len("count(") : -1])


def install(tracer: Tracer, package) -> None:
    """Wrap the package's public layer functions in place.

    Each wrapper replaces every reference to the original function across
    the package's modules, so calls through ``from .core import run_apc``
    style imports are recorded too. Missing functions go to tracer.absent.
    """
    modules = [package] + [m for m in vars(package).values() if isinstance(m, types.ModuleType)]

    def patch(module_name: str, attr: str, name: str, make):
        module = getattr(package, module_name, None)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            tracer.absent.append(name)
            return
        wrapped = make(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    for module_name, attr, name, extra in SPAN_POINTS:
        patch(module_name, attr, name, lambda f, n=name, e=extra: tracer.span(n, f, e))
    module_name, attr, name = ITERATION_OPEN
    patch(module_name, attr, name, lambda f, n=name: tracer.timed_counter(n, f))
    module_name, attr, name = ITERATION_CLOSE
    patch(module_name, attr, name, lambda f, n=name: tracer.timed_counter(n, f, closes_iteration=True))
    module_name, attr, name = CONTAINS
    patch(module_name, attr, name, tracer.hit_counter)
