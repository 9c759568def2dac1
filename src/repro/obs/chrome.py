"""Export a flow trace as Chrome trace-event JSON (Perfetto-viewable).

The trace-event format is the ``{"traceEvents": [...]}`` JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly: each span
becomes a complete event (``"ph": "X"``) with microsecond ``ts``/``dur``,
the span category as ``cat`` and its attributes as ``args``.  Spans keep
their process id, so a parallel run renders worker pipelines as separate
tracks instead of one impossible overlapping lane.
"""

from __future__ import annotations

import json

from repro.obs.schema import require_spans
from repro.obs.spans import Span

__all__ = ["chrome_trace_events", "trace_to_chrome_json"]


def _span_events(node: Span, default_pid: int, out: list[dict]) -> None:
    pid = node.pid or default_pid
    out.append({
        "name": node.name,
        "cat": node.category or "span",
        "ph": "X",
        "ts": round(node.start * 1e6, 3),
        "dur": round(node.seconds * 1e6, 3),
        "pid": pid,
        "tid": pid,
        "args": node.attrs,
    })
    for child in node.children:
        _span_events(child, default_pid, out)


def chrome_trace_events(trace: dict) -> list[dict]:
    """The ``traceEvents`` list for one trace-JSON document.

    Raises :class:`ValueError` for a document without a span tree.
    """
    events: list[dict] = []
    root = Span.from_dict(require_spans(trace))
    _span_events(root, root.pid or 1, events)
    return events


def trace_to_chrome_json(trace: dict, indent: int | None = None) -> str:
    """Serialize one trace as a Chrome trace-event JSON document."""
    document = {
        "traceEvents": chrome_trace_events(trace),
        "displayTimeUnit": "ms",
        "otherData": {
            "circuit": trace.get("circuit", ""),
            "generator": "repro-trace",
            "trace_schema": trace.get("schema", 1),
        },
    }
    return json.dumps(document, indent=indent)
