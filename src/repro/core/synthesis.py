"""The full FPRM synthesis flow (paper Sections 2-4, the three steps).

Per output: (1) derive the FPRM form — polarity search plus transform for
dense-table outputs, OFDD construction for wide-support ones; (2) factor —
cube method and/or OFDD method, the better tree wins under ``AUTO``;
(3) remove XOR redundancies on the output tree; then build one
structurally-hashed network over all outputs (the ``resub`` merge) and
verify it against the specification.

Since the pass-pipeline refactor the actual stages live in
:mod:`repro.flow` as named passes (``derive-fprm``, ``factor-cube``,
``factor-ofdd``, ``factor-xorfx``, ``redundancy-removal``,
``inverter-cleanup``, ``resub-merge``); this module is the driver that
threads outputs through the default pipeline and assembles the
:class:`SynthesisResult`.  Each output has one runner,
:func:`~repro.flow.passes.run_output`, which the driver calls in its
own process or which pool workers call for it (``options.jobs``).  The
driver is the only client of the per-output result cache
(``options.cache``): it looks every output up before any runner starts
and stores every fresh full-effort result after.

Observability: when ``options.trace`` is on the driver installs a
:class:`~repro.obs.spans.SpanTracer` for the duration of the run; every
pass, every per-output pipeline, the pool map, the resub merge and the
verification run inside spans, and the pass spans are the only per-pass
clock.  Deep layers (OFDD apply statistics, espresso/exorcism
iterations, fault simulation, mapping) attach their own.  The
:class:`~repro.flow.trace.FlowTrace` on the result is a view
over that span tree, and a :class:`~repro.obs.manifest.RunManifest`
(input digest, options fingerprint, package/python/platform) is attached
to every result — traced or not — so runs can be compared safely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.options import SynthesisOptions
from repro.errors import VerificationError
from repro.flow.cache import cache_key, get_result_cache
from repro.flow.context import OutputReport, OutputRun
from repro.flow.parallel import resolve_jobs, run_outputs_in_pool
from repro.flow.passes import apply_polarity, resub_merge, run_output
from repro.flow.trace import FlowTrace
from repro.network.netlist import Network
from repro.network.verify import VerifyResult, equivalent_to_spec
from repro.obs.manifest import RunManifest
from repro.obs.metrics import get_metrics_registry
from repro.obs.prof.profiler import Profile, SamplingProfiler
from repro.obs.spans import Span, SpanTracer, install, span as obs_span, uninstall
from repro.resilience.budget import Budget, install_budget
from repro.spec import CircuitSpec, OutputSpec

__all__ = [
    "FprmSynthesizer",
    "OutputReport",
    "SynthesisResult",
    "apply_polarity",
    "synthesize_fprm",
]


@dataclass
class SynthesisResult:
    """Network plus per-output reports, trace, manifest and verdict."""

    network: Network
    reports: list[OutputReport] = field(default_factory=list)
    verify: VerifyResult | None = None
    seconds: float = 0.0
    trace: FlowTrace | None = None
    manifest: RunManifest | None = None
    #: How many outputs were answered by the result cache (memory or
    #: disk tier).  ``cached_outputs`` equal to the output count means
    #: the run computed nothing fresh — the signal the serving tier uses
    #: to count *actual* syntheses when several daemons share one cache
    #: directory.
    cached_outputs: int = 0

    @property
    def two_input_gates(self) -> int:
        return self.network.two_input_gate_count()

    @property
    def literals(self) -> int:
        return self.network.literal_count()


class FprmSynthesizer:
    """Synthesizes a :class:`~repro.spec.CircuitSpec` into a network."""

    def __init__(self, options: SynthesisOptions | None = None):
        self.options = options or SynthesisOptions()

    def run(self, spec: CircuitSpec) -> SynthesisResult:
        options = self.options
        tracer = (
            SpanTracer(root_name=f"synthesize:{spec.name}", category="run")
            if options.trace else None
        )
        previous = install(tracer) if tracer is not None else None
        # The run budget is ambient for the whole flow (like the tracer);
        # pool workers get the same deadline shipped with their payload.
        budget = (Budget.start(options.budget_seconds)
                  if options.budget_seconds is not None else None)
        previous_budget = install_budget(budget) if budget is not None else None
        # The sampling profiler rides along with the tracer (samples are
        # attributed to the open-span path, so it needs one); pool
        # workers profile themselves and ship their samples home.
        profiler = (
            SamplingProfiler(interval=options.profile_interval,
                             tracer=tracer).start()
            if options.profile and tracer is not None else None
        )
        try:
            return self._run(spec, tracer, profiler)
        finally:
            if profiler is not None:
                profiler.stop()
            if budget is not None:
                install_budget(previous_budget)
            if tracer is not None:
                uninstall(previous)

    def _run(self, spec: CircuitSpec, tracer: SpanTracer | None,
             profiler: SamplingProfiler | None = None) -> SynthesisResult:
        start = time.perf_counter()
        options = self.options
        jobs = resolve_jobs(options.jobs)
        cache = get_result_cache() if options.cache else None
        manifest = RunManifest.for_run(spec, options, jobs=jobs)
        trace = (
            FlowTrace(circuit=spec.name, jobs=jobs,
                      cache_enabled=options.cache, manifest=manifest)
            if options.trace else None
        )
        metrics = get_metrics_registry()
        # Snapshot the ofdd.* counters so the trace can attribute this
        # run's delta (the counters themselves are process-cumulative).
        ofdd_before = metrics.counter_values("ofdd.") if trace is not None \
            else {}
        metrics.counter("flow.runs", "synthesis runs started").inc()
        metrics.counter("flow.outputs", "outputs synthesized").inc(
            spec.num_outputs
        )

        # -- per-output runs (cache lookups, then pool or serial) ----------
        runs: list[OutputRun | None] = [None] * spec.num_outputs
        keys: list[str | None] = [None] * spec.num_outputs
        pending: list[int] = []
        for index, output in enumerate(spec.outputs):
            if cache is not None:
                keys[index] = cache_key(output, options)
                hit = cache.lookup(keys[index], output)
                if hit is not None:
                    runs[index] = hit
                    _record_cache_hit(output, keys[index], hit)
                    continue
            pending.append(index)
        if cache is not None:
            hits = spec.num_outputs - len(pending)
            if trace is not None:
                trace.cache_hits, trace.cache_misses = hits, len(pending)
            if hits:
                metrics.counter("flow.cache.hits").inc(hits)
            if pending:
                metrics.counter("flow.cache.misses").inc(len(pending))

        fresh: list[OutputRun] | None = None
        if jobs > 1 and len(pending) > 1:
            with obs_span("parallel-map", category="flow") as pool_span:
                fresh, fallback, recovered = run_outputs_in_pool(
                    [spec.outputs[index] for index in pending], options, jobs
                )
                if pool_span is not None:
                    pool_span.set(
                        workers=min(jobs, len(pending)),
                        outputs=len(pending),
                        fallback=fallback,
                        recovered=recovered,
                    )
                for output_run in fresh or ():
                    if output_run.spans and tracer is not None:
                        tracer.adopt(
                            [Span.from_dict(d) for d in output_run.spans],
                            at=pool_span.start if pool_span else None,
                            parent=pool_span,
                        )
                    if output_run.profile and profiler is not None:
                        # Worker samples already start at parallel-map;
                        # re-parent them under this run's root, the
                        # profile analogue of adopt().
                        profiler.profile.merge(
                            Profile.from_dict(output_run.profile),
                            span_prefix=(tracer.root.name,),
                        )
                    # The worker's counter deltas join this registry, so
                    # the run's trace delta includes pool work.
                    for name, value in output_run.counters.items():
                        metrics.counter(name).inc(value)
            if trace is not None and fallback is not None:
                trace.parallel_fallback = fallback
        if fresh is None:
            fresh = [run_output(spec.outputs[index], options)
                     for index in pending]
        for index, output_run in zip(pending, fresh):
            runs[index] = output_run
            # Degraded runs are partial-effort and must never seed future
            # runs (a budget knob would silently change cached answers).
            if cache is not None and not output_run.report.degraded:
                cache.store(keys[index], output_run)

        variants_per_output = []
        reports: list[OutputReport] = []
        var_maps: list[list[int]] = []
        for index, output_run in enumerate(runs):
            assert output_run is not None
            variants_per_output.append(output_run.variants)
            reports.append(output_run.report)
            var_maps.append(list(spec.outputs[index].support))

        # -- resilience accounting ----------------------------------------
        degradations = [
            f"{report.name}:{label}"
            for report in reports for label in report.degraded
        ]
        if degradations:
            metrics.counter(
                "resilience.degradations",
                "effort-degradation rungs taken under budget pressure",
            ).inc(len(degradations))
        if trace is not None:
            trace.degradations = degradations

        # -- resub merge (network-level pass) ------------------------------
        with obs_span("resub-merge", category="pass") as merge_span:
            network, chosen_exprs, merge_details = resub_merge(
                spec, variants_per_output, var_maps
            )
            if merge_span is not None:
                merge_span.set(
                    output=None,
                    gates_before=merge_details["candidates"]["local-best"],
                    gates_after=network.two_input_gate_count(),
                    details=merge_details,
                )
        for index, report in enumerate(reports):
            # Tag only outputs whose realized expression differs from
            # their per-output winner — the resub mix changed *them*.
            if chosen_exprs[index] != variants_per_output[index][0][1]:
                report.method += "(resub-mix)"

        result = SynthesisResult(
            network=network,
            reports=reports,
            seconds=time.perf_counter() - start,
            trace=trace,
            manifest=manifest,
            cached_outputs=sum(
                1 for output_run in runs
                if output_run is not None and output_run.cached
            ),
        )
        if options.verify:
            with obs_span("verify", category="pass") as verify_span:
                result.verify = equivalent_to_spec(network, spec)
                if verify_span is not None:
                    gates = network.two_input_gate_count()
                    verify_span.set(
                        output=None,
                        gates_before=gates,
                        gates_after=gates,
                        details={
                            "equivalent": bool(result.verify),
                            "method": result.verify.method,
                        },
                    )
            metrics.counter("flow.verified").inc()
            result.seconds = time.perf_counter() - start
            if not result.verify:
                raise VerificationError(
                    f"{spec.name}: synthesized network is not equivalent "
                    f"({result.verify.method}: {result.verify.detail})"
                )
        metrics.histogram("flow.run_seconds",
                          "wall-time per synthesis run").observe(
            time.perf_counter() - start
        )
        if trace is not None:
            trace.seconds = time.perf_counter() - start
            trace.metrics = {
                name: value - ofdd_before.get(name, 0)
                for name, value in metrics.counter_values("ofdd.").items()
                if value - ofdd_before.get(name, 0)
            }
            assert tracer is not None
            trace.root = tracer.finish()
            if profiler is not None:
                # Same Profile object the still-running profiler owns;
                # run() stops it (stamping the duration) before the
                # result can be serialized.
                trace.profile = profiler.profile
        return result


def _record_cache_hit(output: OutputSpec, key: str, hit: OutputRun) -> None:
    """Show a cache hit in the span tree: ``output:<name>`` → ``cache-lookup``."""
    with obs_span(f"output:{output.name}", category="output",
                  output=output.name):
        with obs_span("cache-lookup", category="pass") as node:
            if node is not None:
                gates = hit.report.gates_after_reduction
                node.set(
                    output=output.name,
                    gates_before=gates,
                    gates_after=gates,
                    details={
                        "hit": True,
                        "tier": hit.cached,
                        "key": key[:16],
                        "saved_seconds": hit.seconds,
                    },
                )


def synthesize_fprm(
    spec: CircuitSpec, options: SynthesisOptions | None = None
) -> SynthesisResult:
    """One-call front door: synthesize ``spec`` with the paper's flow."""
    return FprmSynthesizer(options).run(spec)
