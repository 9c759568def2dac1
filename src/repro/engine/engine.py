"""The synthesis engine: one front door for every entry point.

``repro-synth``, the Table 2 harness, the ablation sweeps, the fuzz
oracles and the ``repro-serve`` daemon all used to wire the flow
pipeline by hand — options resolution here, cache setup there, manifest
and metrics in a third place.  :class:`SynthesisEngine` owns that glue:

* **options resolution** — a base :class:`SynthesisOptions` from the
  :class:`~repro.engine.config.EngineConfig`, with per-call sparse
  overrides folded in by :func:`~repro.engine.config.resolve_options`;
* **cache wiring** — when the config names a cache directory, the
  engine attaches a :class:`~repro.flow.disk_cache.DiskCacheTier` to
  the process-wide result cache for a two-level memory→disk lookup
  shared by every run (and pool worker) in the process;
* **pipeline assembly** — dispatch to the FPRM pass pipeline
  (:class:`~repro.core.synthesis.FprmSynthesizer`, which carries the
  budget/retry/crash-isolation machinery) or the SIS-like baseline;
* **manifest emission** — every FPRM result carries its
  :class:`~repro.obs.manifest.RunManifest`; the engine additionally
  exposes :meth:`request_key`, the ``spec digest / options
  fingerprint`` identity that ``repro-serve`` dedups on.

Engines are context managers; :meth:`close` detaches the disk tier the
engine attached (idempotent, and a no-op for tiers attached by someone
else).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import SynthesisOptions
from repro.core.synthesis import FprmSynthesizer, SynthesisResult
from repro.engine.config import EngineConfig, resolve_options
from repro.flow.cache import get_result_cache
from repro.flow.disk_cache import DiskCacheTier
from repro.flow.trace import FlowTrace
from repro.network.netlist import Network
from repro.obs.manifest import options_fingerprint, spec_digest
from repro.obs.metrics import get_metrics_registry
from repro.spec import CircuitSpec

__all__ = ["EngineRun", "SynthesisEngine"]


@dataclass
class EngineRun:
    """Flow-agnostic view of one engine invocation (what the CLIs print)."""

    network: Network
    seconds: float
    flow: str
    trace: FlowTrace | None = None
    result: SynthesisResult | None = None
    baseline_script: str | None = None


class SynthesisEngine:
    """Resolves options, wires caches, and runs either flow."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.disk_tier: DiskCacheTier | None = None
        if self.config.cache_dir is not None:
            self.disk_tier = DiskCacheTier(
                self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
            )
            get_result_cache().attach_disk(self.disk_tier)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach the disk tier this engine attached (idempotent)."""
        if self.disk_tier is not None:
            cache = get_result_cache()
            if cache.disk is self.disk_tier:
                cache.detach_disk()
            self.disk_tier = None

    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- identity ----------------------------------------------------------

    def resolve(self, options: SynthesisOptions | None = None,
                **overrides) -> SynthesisOptions:
        """The effective options for a call (config base + overrides)."""
        return resolve_options(
            options if options is not None else self.config.options,
            **overrides,
        )

    def request_key(self, spec: CircuitSpec,
                    options: SynthesisOptions | None = None,
                    **overrides) -> str:
        """Content identity of a whole request: the dedup/batching key.

        Same basis as the per-output cache keys and the run manifest
        (spec digest + semantic-options fingerprint), so two requests
        with this key equal are guaranteed the same answer.
        """
        resolved = self.resolve(options, **overrides)
        return f"{spec_digest(spec)}/{options_fingerprint(resolved)}"

    # -- the flows ---------------------------------------------------------

    def synthesize(self, spec: CircuitSpec,
                   options: SynthesisOptions | None = None,
                   **overrides) -> SynthesisResult:
        """Run the paper's FPRM flow (pipeline, cache, budget, manifest)."""
        resolved = self.resolve(options, **overrides)
        registry = get_metrics_registry()
        registry.counter(
            "engine.requests", "synthesis requests through the engine"
        ).inc()
        result = FprmSynthesizer(resolved).run(spec)
        # Fresh vs. fully-cached accounting: a request whose every output
        # came out of the result cache did no synthesis work of its own.
        # Summed across daemons sharing a cache directory, the fresh
        # counter is the "exactly one synthesis per request_key" witness
        # the multi-daemon crash-restart gauntlet asserts on.
        if spec.num_outputs and result.cached_outputs == spec.num_outputs:
            registry.counter(
                "engine.requests.cached",
                "requests answered entirely from the result cache",
            ).inc()
        else:
            registry.counter(
                "engine.requests.fresh",
                "requests that synthesized at least one output",
            ).inc()
        return result

    def baseline(self, spec: CircuitSpec, verify: bool = True):
        """The SIS-like baseline: ``(BaselineResult, script_name)``."""
        from repro.sislite.scripts import best_baseline

        get_metrics_registry().counter(
            "engine.baseline_requests", "baseline requests through the engine"
        ).inc()
        return best_baseline(spec, verify=verify)

    def run(self, spec: CircuitSpec,
            options: SynthesisOptions | None = None,
            **overrides) -> EngineRun:
        """Run the configured flow and return the flow-agnostic view."""
        if self.config.flow == "sislite":
            resolved = self.resolve(options, **overrides)
            base, script = self.baseline(spec, verify=resolved.verify)
            return EngineRun(
                network=base.network,
                seconds=base.seconds,
                flow=f"sislite ({script})",
                baseline_script=script,
            )
        result = self.synthesize(spec, options, **overrides)
        return EngineRun(
            network=result.network,
            seconds=result.seconds,
            flow="fprm",
            trace=result.trace,
            result=result,
        )
