"""Deep observability: spans, metrics, manifests, schemas, exporters.

The pieces and how they fit:

* :mod:`repro.obs.spans` — hierarchical span tracer.  The synthesis
  driver installs one per run; passes and the deep layers (OFDD apply,
  ESOP minimization, espresso, fault simulation, mapping, verification)
  open ambient spans that cost nothing while tracing is off.
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  with JSON and Prometheus-text exporters; the benchmark harness dumps
  the registry as ``BENCH_*.json``.
* :mod:`repro.obs.prof` — sampling profiler attached to the span tracer
  (samples attributed to the enclosing pass and weighted by measured
  wall time), with collapsed-stack and speedscope flamegraph exports.
* :mod:`repro.obs.runctx` — ambient per-request :class:`RunContext`
  (correlation id + request key) that travels into pool workers.
* :mod:`repro.obs.logs` — structured JSON event logging stamped with
  the ambient run context.
* :mod:`repro.obs.manifest` — run manifests (input digest, options
  fingerprint, package/python/platform) attached to every
  ``SynthesisResult`` and embedded in trace JSON; its
  ``options_fingerprint`` is also the options part of every cache key.
* :mod:`repro.obs.schema` — versioned golden schemas plus a dependency-
  free validator for trace/manifest/metrics/profile documents.
* :mod:`repro.obs.chrome` — Chrome trace-event (Perfetto) export.
* :mod:`repro.obs.cli` — the ``repro-trace`` tool (summarize, profile,
  export, validate), the one command line over these documents; not
  imported here so the library import stays light.  Runs are compared
  by the benchmark (``python -m bench.compare``), not here.

``FlowTrace`` (:mod:`repro.flow.trace`) is a view over the span tree
these pieces build; see ``docs/OBSERVABILITY.md`` for the full story.
"""

from repro.obs.logs import configure, log_event, logging_enabled
from repro.obs.manifest import RunManifest, options_fingerprint, spec_digest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics_registry,
)
from repro.obs.prof import Profile, SamplingProfiler, write_profile
from repro.obs.runctx import (
    RunContext,
    current_run_context,
    install_run_context,
    new_correlation_id,
)
from repro.obs.schema import (
    TRACE_SCHEMA_VERSION,
    validate_manifest,
    validate_metrics,
    validate_trace,
)
from repro.obs.spans import (
    Span,
    SpanTracer,
    current_tracer,
    install,
    span,
    uninstall,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profile",
    "RunContext",
    "RunManifest",
    "SamplingProfiler",
    "Span",
    "SpanTracer",
    "TRACE_SCHEMA_VERSION",
    "configure",
    "current_run_context",
    "current_tracer",
    "get_metrics_registry",
    "install",
    "install_run_context",
    "log_event",
    "logging_enabled",
    "new_correlation_id",
    "options_fingerprint",
    "span",
    "spec_digest",
    "uninstall",
    "validate_manifest",
    "validate_metrics",
    "validate_trace",
    "write_profile",
]
