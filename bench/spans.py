"""Spans recorded by the benchmark around its calls into each layer.

Spans live in memory and are written once, at exit, as a Chrome trace
(``chrome://tracing`` or Perfetto): one complete event per span, whose
``args`` carry the span id, its parent's id and the circuit or request
it belongs to.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    circuit: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def add(self, name: str, circuit: str, start: float, end: float,
            parent: Span | None = None) -> Span:
        """Record a span whose bounds are already known."""
        span = Span(next(self._ids), parent.id if parent else None,
                    name, circuit, start, end)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, circuit: str, parent: Span | None = None):
        """Time the body as one span (``perf_counter`` clock)."""
        span = self.add(name, circuit, time.perf_counter(), 0.0, parent)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]

    def write(self, path) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        events = [{
            "name": span.name,
            "cat": "bench",
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"id": span.id, "parent": span.parent,
                     "circuit": span.circuit},
        } for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
