"""Span tracing of ktae's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function at the module attribute its
callers look up, records one span per call in memory, and puts every
original back on exit. It is single-threaded: spans made in pool workers
are lost, so only serial runs are traced.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import time
from contextlib import contextmanager
from typing import NamedTuple

import ktae.advantage
import ktae.cli
import ktae.frequency
import ktae.stats
from ktae.core import RolloutGroup


class Span(NamedTuple):
    name: str  # "<module>.<function>" for program calls, or a benchmark-chosen name
    start: int  # time.perf_counter_ns()
    end: int
    parent: int  # index of the enclosing span, -1 for a root
    group: str | None  # id of the group being processed


def targets() -> list[tuple[object, str]]:
    """(module, attribute) pairs a traced run wraps, at the names their callers use."""
    pairs = [(ktae.cli, name) for name in
             ("parse_group_record", "validate_group", "compute_advantages", "advantage_record_line")]
    pairs += [(ktae.advantage, name) for name in
              ("compute_advantages", "validate_group", "grpo_advantages", "sigmoid_shift")]
    pairs = [(module, name) for module, name in pairs if hasattr(module, name)]
    pairs += [(ktae.stats, name) for name, value in vars(ktae.stats).items()
              if name.endswith("_array") and inspect.isfunction(value)]
    pairs += [(ktae.frequency, name) for name, value in vars(ktae.frequency).items()
              if not name.startswith("_") and inspect.isfunction(value)
              and value.__module__ == ktae.frequency.__name__]
    return pairs


class Tracer:
    """Context manager: wrap every target, record spans and GC pauses, restore on exit."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.gc_ns = 0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._group: str | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._gc_started = 0

    def __enter__(self) -> "Tracer":
        for module, name in targets():
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections that interrupt a traced call count; the benchmark's
        # own checks between calls allocate too.
        if phase == "start":
            self._gc_started = time.perf_counter_ns() if self._stack else 0
        elif self._gc_started:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('ktae.')}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args and isinstance(args[0], RolloutGroup):
                self._group = args[0].group_id
            elif name == "records.advantage_record_line":
                self._group = args[0]
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, RolloutGroup):
                    self._group = result.group_id
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._group)

        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span around a call into the program."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(list(s)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            own[s.parent] -= max(0, min(s.end, p.end) - max(s.start, p.start))
    return own


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (parents precede their children)."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out
