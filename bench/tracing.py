"""Span tracer that wraps cauchyga's public functions from outside the package.

A traced function is replaced, in every ``cauchyga`` module namespace that
holds it, by a wrapper that records one span: name, start, end and parent.
Replacing it where its callers look it up matters because modules import
each other's functions by name: ``nfd.distance`` is called as
``engine.distance``, ``theory.distance``, ``selection.distance`` and
``verify.distance``. A span is named after the function's defining module,
whichever namespace the call went through.

Spans are kept in memory (four flat arrays) and written out when the
benchmark ends. A function that no longer exists, or is no longer defined
in the module its span is named after, is reported as absent rather than
traced.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from array import array
from functools import wraps
from pathlib import Path

import numpy as np

CALL = "bench.call"  # root span of one benchmark call
COUNT = "bench.count"  # the tracer's own counting work, excluded from self time
PACKAGE = "cauchyga"


def resolve(span: str) -> types.FunctionType | None:
    """The function a span name like 'engine.mutate' refers to, if it exists."""
    module_name, _, func_name = span.rpartition(".")
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ModuleNotFoundError:
        return None
    fn = getattr(module, func_name, None)
    if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
        return None
    return fn


class Tracer:
    """Records spans for a fixed set of functions while installed."""

    def __init__(self, spans: list[str]) -> None:
        self.names = [CALL, COUNT]
        self.absent: list[str] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # per-layer counters measured where the work happens
        self.rows = 0  # rows evaluated by benchmarks.evaluate_raw_batch
        self.distinct_rows = 0  # distinct rows within each evaluated batch
        self.support_sum = 0  # support sizes of the NFDs nfd.distance compared
        self.support_nfds = 0
        hooks = {
            "benchmarks.evaluate_raw_batch": self._count_rows,
            "nfd.distance": self._count_support,
        }
        for span in spans:
            fn = resolve(span)
            if fn is None:
                self.absent.append(span)
                continue
            self.names.append(span)
            wrapper = self._wrap(fn, len(self.names) - 1, hooks.get(span))
            self._wrappers[id(fn)] = (fn, wrapper)

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def _wrap(self, fn, name_id: int, hook):
        clock = time.perf_counter
        open_span, close_span = self._open, self._close

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx, t0, clock())
            if hook is not None:
                count_idx = open_span(1)
                c0 = clock()
                hook(args, kwargs)
                close_span(count_idx, c0, clock())
            return result

        return traced

    def _count_rows(self, args, kwargs) -> None:
        xs = np.asarray(kwargs["xs"] if "xs" in kwargs else args[1])
        self.rows += xs.shape[0]
        self.distinct_rows += np.unique(xs, axis=0).shape[0]

    def _count_support(self, args, kwargs) -> None:
        for phi in (*args, *kwargs.values()):
            self.support_sum += len(phi)
            self.support_nfds += 1

    def install(self) -> None:
        """Swap every traced function for its wrapper in all cauchyga modules."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def call(self, execute):
        """Run one benchmark call under a root span, with the wrappers in place."""
        self.install()
        try:
            idx = self._open(0)
            t0 = time.perf_counter()
            try:
                return execute()
            finally:
                self._close(idx, t0, time.perf_counter())
        finally:
            self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span recorded so far to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and span count.

        A span's self time is its duration minus the durations of its child
        spans, which run one after another inside it.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        children = np.bincount(
            a["parent"][child], weights=dur[child], minlength=len(dur)
        )
        own = dur - children
        s = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name"], weights=own, minlength=n_names)
        calls = np.bincount(a["name"], minlength=n_names)
        return {
            name: {"s": float(s[i]), "self_s": float(self_s[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
        }
