"""Spans around the program's public functions, installed from outside.

``Tracer`` replaces every public function of the named bitsdf modules, in
every bitsdf module namespace that holds it, with a wrapper that records a
span (name, start, end, parent) while tracing is on. Functions named in
``always`` record their span even with tracing off, so an untraced run can
still time them. The first span of each name in ``MEMORY_SPANS`` after
``take`` also records its tracemalloc peak while tracing is on; later calls
are not watched, because tracemalloc slows the per-point Python loop of
integrate_frame several times over. Any other wrapper, with tracing off,
only forwards the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass

MEMORY_SPANS = frozenset({
    "integrator.integrate_frame", "io.save_grid", "io.load_grid",
    "mesher.extract_mesh",
})


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    peak_bytes: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Halt(Exception):
    """Raised on entry to the function named by ``Tracer.halt_at``."""


class Tracer:
    def __init__(self, package: str, modules: tuple, always=frozenset()):
        self.active = False
        self.always = frozenset(always)
        self.halt_at = None  # a span name; its call raises Halt instead of running
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._watched: set[str] = set()
        namespaces = [m for name, m in sys.modules.items()
                      if name == package or name.startswith(package + ".")]
        for short in modules:
            mod = sys.modules[f"{package}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)

    def _wrap(self, name, fn):
        always = name in self.always

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (self.active or always):
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = Span(name, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(sid)
            watch = (self.active and name in MEMORY_SPANS
                     and name not in self._watched and not tracemalloc.is_tracing())
            if watch:
                self._watched.add(name)
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                if name == self.halt_at:
                    raise Halt
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if watch:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    def take(self) -> list[Span]:
        """Spans recorded since the last call; clears the buffer."""
        spans, self.spans = self.spans, []
        self._watched = set()
        return spans


def _under(spans, span, ancestor):
    p = span.parent
    while p is not None:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False


def total_seconds(spans, name, under=None, direct_child_of=None, unwatched=False):
    """Summed duration of the spans called ``name``; ``unwatched`` leaves
    out the span that carried the tracemalloc watch."""
    out = 0.0
    for s in spans:
        if s.name != name or (unwatched and s.peak_bytes is not None):
            continue
        if under is not None and not _under(spans, s, under):
            continue
        if direct_child_of is not None and (
                s.parent is None or spans[s.parent].name != direct_child_of):
            continue
        out += s.seconds
    return out


def self_seconds(spans, name):
    """Time inside spans called ``name`` not covered by their direct
    children."""
    out = 0.0
    for i, s in enumerate(spans):
        if s.name == name:
            out += s.seconds - sum(c.seconds for c in spans if c.parent == i)
    return out


def peak_mib(spans, name):
    peaks = [s.peak_bytes for s in spans if s.name == name and s.peak_bytes is not None]
    return max(peaks) / 2**20 if peaks else 0.0


def nth_child_seconds(spans, parent_name, child_name, n):
    """Total time of the n-th ``child_name`` call inside each ``parent_name``
    span."""
    out = 0.0
    for i, s in enumerate(spans):
        if s.name != parent_name:
            continue
        kids = [c for c in spans if c.parent == i and c.name == child_name]
        if len(kids) > n:
            out += kids[n].seconds
    return out
