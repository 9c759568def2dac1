"""Structured telemetry for the FPRM flow.

Since the observability layer (:mod:`repro.obs`) landed, the source of
truth for a traced run is a hierarchical *span tree*: the driver opens a
root span per run, each per-output pipeline and each pass runs inside a
child span, and the deep layers (OFDD apply statistics, ESOP iteration
trajectories, fault simulation, mapping, verification) attach their own
spans underneath.  :class:`FlowTrace` is a **view** over that tree — the
flat per-pass :class:`PassRecord` list of the original pass-pipeline PR
is derived from the spans with ``category == "pass"`` — so the
``SynthesisResult.trace`` API and the ``repro-synth --trace`` JSON keep
working unchanged (the JSON additionally carries ``spans``, ``manifest``
and a ``schema`` version).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.manifest import RunManifest
from repro.obs.prof.profiler import Profile
from repro.obs.schema import TRACE_SCHEMA_VERSION, require_spans
from repro.obs.spans import Span


@dataclass
class PassRecord:
    """One pass execution on one output (or on the whole network).

    ``gates_before``/``gates_after`` are the best known strashed 2-input
    gate counts at pass entry/exit (``None`` while no candidate exists
    yet, e.g. during ``derive-fprm``).  ``details`` holds pass-specific
    diagnostics and must stay JSON-serializable.
    """

    pass_name: str
    output: str | None
    seconds: float
    gates_before: int | None = None
    gates_after: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def gate_delta(self) -> int | None:
        """Gate change of this pass (negative = improvement)."""
        if self.gates_before is None or self.gates_after is None:
            return None
        return self.gates_after - self.gates_before

    def as_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "output": self.output,
            "seconds": self.seconds,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "gate_delta": self.gate_delta,
            "details": self.details,
        }

    @classmethod
    def from_span(cls, span: Span) -> "PassRecord":
        """The flat-record view of one ``category == "pass"`` span."""
        return cls(
            pass_name=span.name,
            output=span.attrs.get("output"),
            seconds=span.seconds,
            gates_before=span.attrs.get("gates_before"),
            gates_after=span.attrs.get("gates_after"),
            details=span.attrs.get("details", {}),
        )


@dataclass
class FlowTrace:
    """Everything observable about one synthesis run.

    ``records`` is derived from the span tree ``root``, which every
    traced run sets.
    """

    circuit: str
    jobs: int = 1
    cache_enabled: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    parallel_fallback: str | None = None
    seconds: float = 0.0
    root: Span | None = None
    manifest: RunManifest | None = None
    #: Stack samples from the sampling profiler (``options.profile``);
    #: span-attributed, pool-worker samples merged in — see
    #: :mod:`repro.obs.prof`.
    profile: Profile | None = None
    # Resilience: ``output:stage->fallback`` labels for every effort-
    # degradation rung taken this run.  (How many outputs a pooled run
    # recovered in-process is the ``parallel-map`` span's ``recovered``.)
    degradations: list[str] = field(default_factory=list)
    #: Run-scoped counter deltas from the metrics registry (today the
    #: ``ofdd.*`` family), so an exported trace carries the same numbers
    #: ``repro-trace summary`` shows.
    metrics: dict = field(default_factory=dict)

    # -- the records view --------------------------------------------------

    @property
    def records(self) -> list[PassRecord]:
        """Flat per-pass records — a preorder view over the span tree."""
        if self.root is None:
            return []
        return [
            PassRecord.from_span(node)
            for node in self.root.walk()
            if node.category == "pass"
        ]

    # -- queries -----------------------------------------------------------

    def pass_names(self) -> list[str]:
        """Distinct pass names in first-appearance order."""
        seen: set[str] = set()
        names: list[str] = []
        for record in self.records:
            if record.pass_name not in seen:
                seen.add(record.pass_name)
                names.append(record.pass_name)
        return names

    def records_for(
        self, pass_name: str | None = None, output: str | None = None
    ) -> list[PassRecord]:
        return [
            record for record in self.records
            if (pass_name is None or record.pass_name == pass_name)
            and (output is None or record.output == output)
        ]

    def seconds_by_pass(self) -> dict[str, float]:
        """Total wall-time per pass name (insertion-ordered)."""
        totals: dict[str, float] = {}
        for record in self.records:
            totals[record.pass_name] = (
                totals.get(record.pass_name, 0.0) + record.seconds
            )
        return totals

    def hotspots(self, top: int = 5) -> list[tuple[str, float]]:
        """Top spans by aggregated *self*-time.

        Self-time attributes each wall-clock second to the innermost
        span that spent it, so a pass that is slow only because of a
        deep-layer helper it calls does not mask the helper.
        """
        totals: dict[str, float] = {}
        if self.root is not None:
            for node in self.root.walk():
                totals[node.name] = totals.get(node.name, 0.0) + node.self_seconds
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        return ranked[:top]

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        payload = {
            "schema": TRACE_SCHEMA_VERSION,
            "circuit": self.circuit,
            "jobs": self.jobs,
            "cache": {
                "enabled": self.cache_enabled,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "parallel_fallback": self.parallel_fallback,
            "seconds": self.seconds,
            "resilience": {
                "degradations": list(self.degradations),
            },
            "seconds_by_pass": self.seconds_by_pass(),
            "records": [record.as_dict() for record in self.records],
        }
        if self.metrics:
            payload["metrics"] = dict(self.metrics)
        if self.root is not None:
            payload["spans"] = self.root.as_dict()
        if self.manifest is not None:
            payload["manifest"] = self.manifest.as_dict()
        if self.profile is not None:
            payload["profile"] = self.profile.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FlowTrace":
        """Rebuild a trace from its JSON form.

        Raises :class:`ValueError` for a document without a span tree.
        """
        root = Span.from_dict(require_spans(payload))
        cache = payload.get("cache", {})
        resilience = payload.get("resilience", {})
        trace = cls(
            circuit=payload.get("circuit", ""),
            jobs=payload.get("jobs", 1),
            cache_enabled=cache.get("enabled", False),
            cache_hits=cache.get("hits", 0),
            cache_misses=cache.get("misses", 0),
            parallel_fallback=payload.get("parallel_fallback"),
            seconds=payload.get("seconds", 0.0),
            degradations=list(resilience.get("degradations", [])),
            metrics=dict(payload.get("metrics", {})),
            root=root,
        )
        if "manifest" in payload:
            trace.manifest = RunManifest.from_dict(payload["manifest"])
        if "profile" in payload:
            trace.profile = Profile.from_dict(payload["profile"])
        return trace

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def ofdd_summary(self) -> str:
        """One-line ``ofdd.*`` digest ('' when the run built no OFDDs)."""
        ofdd = {
            name.removeprefix("ofdd."): value
            for name, value in self.metrics.items()
            if name.startswith("ofdd.")
        }
        if not ofdd:
            return ""
        hits = ofdd.get("computed.hits", 0)
        misses = ofdd.get("computed.misses", 0)
        total = hits + misses
        rate = f"{hits / total:.0%}" if total else "n/a"
        return (
            f"ofdd: {ofdd.get('managers', 0):g} manager(s), "
            f"{ofdd.get('nodes', 0):g} node(s), apply cache "
            f"{hits:g}/{total:g} hit(s) ({rate}), "
            f"{ofdd.get('auto_gc', 0):g} auto-gc"
        )

    def summary(self, top: int = 5) -> str:
        """A compact multi-line text summary (for CLI reports)."""
        lines = [f"flow trace: {self.circuit}  jobs={self.jobs}  "
                 f"{len(self.records)} pass records  {self.seconds:.3f}s"]
        if self.cache_enabled:
            lines.append(
                f"  cache: {self.cache_hits} hit(s), "
                f"{self.cache_misses} miss(es)"
            )
        if self.degradations:
            lines.append(f"  resilience: degraded: "
                         f"{', '.join(self.degradations)}")
        ofdd_line = self.ofdd_summary()
        if ofdd_line:
            lines.append(f"  {ofdd_line}")
        for name, secs in self.seconds_by_pass().items():
            lines.append(f"  {name:<20} {secs:8.4f}s")
        hot = self.hotspots(top)
        if hot:
            lines.append("  hotspots (self-time):")
            for name, secs in hot:
                lines.append(f"    {name:<24} {secs:8.4f}s")
        return "\n".join(lines)
