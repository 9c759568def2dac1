"""A small process-wide metrics registry: counters, gauges, histograms.

The registry is the always-on complement of the span tracer: spans answer
"where did this run spend its time", metrics answer "how much work has
this process done" — apply calls, cache hits, espresso iterations —
across runs.  Instruments are plain Python objects with integer/float
fields; recording is a small locked update, cheap enough to leave
enabled everywhere.

Thread safety: every instrument carries its own lock, taken around each
mutation and around snapshot reads, and the registry locks its map for
iteration as well as get-or-create — so a threaded caller (the
``repro-serve`` request handlers scraping ``/metrics`` while worker
threads synthesize) can never observe a torn histogram or race an
``inc`` into oblivion.

Exporters: :meth:`MetricsRegistry.as_dict` (the ``BENCH_*.json`` format
the benchmark harness emits, validated by :mod:`repro.obs.schema`) and
:meth:`MetricsRegistry.to_prometheus_text` (the Prometheus text
exposition format, so a service wrapping the flow can mount the registry
on a ``/metrics`` endpoint unchanged).

Metric names are dotted (``flow.cache.hits``); the Prometheus exporter
rewrites them to underscored form.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics_registry",
]

#: Default histogram bucket upper bounds (seconds-flavoured, powers of 4).
DEFAULT_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0, 64.0)


def _label_key(name: str, labels: dict[str, str] | None) -> str:
    """Registry key for an instrument: ``name{k=v,...}`` when labeled.

    Labels are sorted so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``
    name the same instrument.
    """
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


@dataclass(eq=False)
class Counter:
    """Monotonically increasing count."""

    name: str
    help: str = ""
    value: int | float = 0
    labels: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        with self._lock:
            doc = {"type": "counter", "help": self.help, "value": self.value}
            if self.labels:
                doc["labels"] = dict(self.labels)
            return doc


@dataclass(eq=False)
class Gauge:
    """A value that can go up and down."""

    name: str
    help: str = ""
    value: int | float = 0
    labels: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: int | float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self.value -= amount

    def as_dict(self) -> dict:
        with self._lock:
            doc = {"type": "gauge", "help": self.help, "value": self.value}
            if self.labels:
                doc["labels"] = dict(self.labels)
            return doc


@dataclass(eq=False)
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    labels: dict = field(default_factory=dict)
    counts: list[int] = field(default_factory=list)  # one per bucket + inf
    total: float = 0.0
    count: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_right(self.buckets, value)] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        with self._lock:
            doc = {
                "type": "histogram",
                "help": self.help,
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "sum": self.total,
                "count": self.count,
            }
            if self.labels:
                doc["labels"] = dict(self.labels)
            return doc


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def _get(self, name: str, kind, labels=None, **kwargs):
        labels = {k: str(v) for k, v in (labels or {}).items()}
        key = _label_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = kind(name=name, labels=labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {key!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._get(name, Counter, labels=labels, help=help)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get(name, Gauge, labels=labels, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  labels: dict | None = None) -> Histogram:
        return self._get(name, Histogram, labels=labels,
                         help=help, buckets=buckets)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def counter_values(
        self, prefix: str | tuple[str, ...] = ""
    ) -> dict[str, int | float]:
        """Current values of the counters whose name starts with ``prefix``
        (one of them, for a tuple).

        A cheap point-in-time view for run-scoped deltas (e.g. the
        ``ofdd.*`` counters a trace attributes to one synthesis run).
        """
        with self._lock:
            items = list(self._metrics.items())
        return {
            name: metric.value
            for name, metric in items
            if isinstance(metric, Counter) and name.startswith(prefix)
        }

    # -- exporters ---------------------------------------------------------

    def _snapshot(self) -> list[tuple[str, dict]]:
        """A consistent (name, as_dict) view for the exporters.

        The registry lock guards the iteration; each instrument's own
        lock (inside ``as_dict``) guards its fields, so a concurrent
        ``observe`` can never produce a torn histogram in an export.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        return [(name, metric.as_dict()) for name, metric in metrics]

    def as_dict(self) -> dict:
        """The JSON shape of ``BENCH_*.json`` (see repro.obs.schema)."""
        return {
            "schema": 1,
            "metrics": dict(self._snapshot()),
        }

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (0.0.4).

        Every metric family gets both its ``# HELP`` and ``# TYPE``
        line — scrapers and dashboards key the type off the metadata,
        and an instrument registered without help text still must not
        produce an untyped family.  Labeled instruments of one family
        (e.g. the per-reason ``serve.degraded.reasons`` counters) are
        grouped under a single HELP/TYPE header and rendered as label
        sets.
        """
        def render_labels(labels: dict, extra: str = "") -> str:
            parts = [
                '{key}="{val}"'.format(
                    key=key,
                    val=str(val).replace("\\", "\\\\").replace('"', '\\"'),
                )
                for key, val in sorted(labels.items())
            ]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        # Group label variants under one family: sort by base name, with
        # the unlabeled instrument (if any) first.
        snapshot = sorted(
            self._snapshot(),
            key=lambda item: (item[0].split("{", 1)[0], item[0]),
        )
        lines: list[str] = []
        seen_families: set[str] = set()
        for key, data in snapshot:
            name = key.split("{", 1)[0]
            flat = name.replace(".", "_").replace("-", "_")
            kind = data["type"]
            labels = data.get("labels", {})
            if flat not in seen_families:
                seen_families.add(flat)
                help_text = (data["help"] or name).replace("\\", "\\\\") \
                    .replace("\n", "\\n")
                lines.append(f"# HELP {flat} {help_text}")
                lines.append(f"# TYPE {flat} {kind}")
            label_text = render_labels(labels)
            if kind in ("counter", "gauge"):
                lines.append(f"{flat}{label_text} {data['value']}")
                continue
            cumulative = 0
            for bound, count in zip(data["buckets"], data["counts"]):
                cumulative += count
                bucket = render_labels(labels, extra=f'le="{bound}"')
                lines.append(f"{flat}_bucket{bucket} {cumulative}")
            cumulative += data["counts"][-1]
            bucket = render_labels(labels, extra='le="+Inf"')
            lines.append(f"{flat}_bucket{bucket} {cumulative}")
            lines.append(f"{flat}_sum{label_text} {data['sum']}")
            lines.append(f"{flat}_count{label_text} {data['count']}")
        return "\n".join(lines) + "\n"


_GLOBAL_REGISTRY = MetricsRegistry()


def get_metrics_registry() -> MetricsRegistry:
    """The process-wide registry the flow and harnesses record into."""
    return _GLOBAL_REGISTRY
