"""In-memory span recorder for the benchmark.

A span is (name, start, end, parent, instance): start and end are
``time.perf_counter`` readings, parent is the index of the enclosing span
(-1 for an instance's root span) and instance is the index of the instance
being run.  Spans are kept in a list and written out when the run ends.
A disabled tracer hands out one shared no-op context and records nothing,
so the untraced run pays a method call per span and nothing else.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.instance])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Records spans while ``enabled`` is true; ``instance`` tags new spans."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.instance = -1
        self.spans: list = []
        self.stack: list = []

    def span(self, name: str):
        if not self.enabled:
            return _NOOP
        return _Span(self, name)


def self_times(spans: list) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_instance(spans: list) -> dict:
    """{instance: {name: [total seconds, self seconds, calls]}}."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for (name, start, end, _, inst), s in zip(spans, own):
        rec = out[inst][name]
        rec[0] += end - start
        rec[1] += s
        rec[2] += 1
    return out
