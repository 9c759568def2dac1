"""Perf smoke: the observability layer must be (nearly) free when off.

Four guards the CI perf-smoke job enforces:

* a disabled ambient :func:`repro.obs.spans.span` call — the pattern
  sprinkled through OFDD/ESOP/espresso/mapping hot paths — costs well
  under a microsecond;
* running the flow with ``trace=False`` is not slower than with tracing
  on beyond a 5% + scheduling-noise margin (best-of-N wall-time, so one
  noisy run cannot fail the job);
* the sampling profiler, when *enabled*, stays within a 15% + noise
  margin of an unprofiled traced run, and actually collects span-
  attributed samples for a Table 2 circuit (non-empty speedscope);
* the artifacts the run leaves behind — the metrics JSON written to
  ``results/BENCH_flow_metrics.json`` and the trace JSON — validate
  against their schemas, so a malformed artifact fails CI here rather
  than in a downstream dashboard.
"""

from __future__ import annotations

import json
import time

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.obs.metrics import get_metrics_registry
from repro.obs.schema import validate_metrics, validate_trace
from repro.obs.spans import span

from benchmarks._util import write_result

_SMOKE_CIRCUIT = "z4ml"
_ROUNDS = 3
_OVERHEAD_FACTOR = 1.05   # the documented <5% budget
_NOISE_FLOOR = 0.020      # seconds; absolute slack for scheduler noise


def _best_wall(options: SynthesisOptions, rounds: int = _ROUNDS) -> float:
    spec = get(_SMOKE_CIRCUIT)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        synthesize_fprm(spec, options)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_span_call_is_submicrosecond():
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("hot-loop", category="algo") as node:
            if node is not None:
                node.set(x=1)
    per_call = (time.perf_counter() - start) / calls
    # Generous for shared CI runners; locally this is ~100ns.
    assert per_call < 2e-6, f"disabled span() costs {per_call * 1e9:.0f}ns"


def test_tracing_off_is_within_five_percent_of_on():
    off = _best_wall(SynthesisOptions(verify=False, trace=False))
    on = _best_wall(SynthesisOptions(verify=False, trace=True))
    budget = on * _OVERHEAD_FACTOR + _NOISE_FLOOR
    assert off <= budget, (
        f"trace=False took {off:.4f}s vs {on:.4f}s traced "
        f"(budget {budget:.4f}s)"
    )


def test_trace_artifact_is_schema_valid(results_dir):
    result = synthesize_fprm(get(_SMOKE_CIRCUIT), SynthesisOptions())
    payload = json.loads(result.trace.to_json())
    errors = validate_trace(payload)
    assert errors == [], errors
    write_result(results_dir / "BENCH_flow_trace.json",
                 json.dumps(payload, indent=2))


def test_metrics_registry_exports_schema_valid_json(results_dir):
    registry = get_metrics_registry()
    synthesize_fprm(get(_SMOKE_CIRCUIT), SynthesisOptions())
    assert "flow.runs" in registry
    payload = json.loads(json.dumps(registry.as_dict()))
    errors = validate_metrics(payload)
    assert errors == [], errors
    assert payload["metrics"]["flow.run_seconds"]["count"] >= 1
    write_result(results_dir / "BENCH_flow_metrics.json",
                 json.dumps(payload, indent=2))


def test_prometheus_exposition_renders():
    registry = get_metrics_registry()
    synthesize_fprm(get(_SMOKE_CIRCUIT), SynthesisOptions())
    text = registry.to_prometheus_text()
    assert "# TYPE flow_runs counter" in text
    assert "flow_run_seconds_bucket" in text


# -- sampling profiler --------------------------------------------------------

_PROFILE_FACTOR = 1.15    # the documented <15% enabled-profiler budget


def test_profiler_enabled_overhead_within_fifteen_percent():
    plain = _best_wall(SynthesisOptions(verify=False, trace=True))
    profiled = _best_wall(
        SynthesisOptions(verify=False, trace=True, profile=True)
    )
    budget = plain * _PROFILE_FACTOR + _NOISE_FLOOR
    assert profiled <= budget, (
        f"profiled run took {profiled:.4f}s vs {plain:.4f}s plain "
        f"(budget {budget:.4f}s)"
    )


def test_profiler_produces_nonempty_speedscope_for_table2_circuit(
    results_dir,
):
    """The acceptance check: profile a real Table 2 circuit at a fast
    sampling rate and the speedscope export must carry samples."""
    from repro.obs.prof import profile_to_speedscope
    from repro.obs.schema import validate

    # mlp4 runs long enough (hundreds of ms) that even a conservative
    # sampler interval collects a meaningful profile.
    result = synthesize_fprm(
        get("mlp4"),
        SynthesisOptions(verify=False, trace=True, profile=True,
                         profile_interval=0.001),
    )
    profile = result.trace.profile
    assert profile is not None
    assert profile.sample_count > 0, "no samples collected"
    assert validate(json.loads(json.dumps(profile.as_dict())),
                    "profile") == []
    doc = profile_to_speedscope(profile, name="mlp4")
    prof = doc["profiles"][0]
    assert prof["samples"] and prof["weights"]
    assert prof["endValue"] > 0
    # Sample weights are measured, so the flamegraph's total reconciles
    # with the profiled wall time however late the sampler woke.
    assert 0.8 <= sum(prof["weights"]) / profile.duration <= 1.2, (
        sum(prof["weights"]), profile.duration)
    assert doc["shared"]["frames"], "speedscope document has no frames"
    # Samples must be span-attributed: the flow's pass names appear as
    # base layers of the flamegraph.
    frame_names = {frame["name"] for frame in doc["shared"]["frames"]}
    assert any(name.startswith("synthesize:") for name in frame_names)
    write_result(results_dir / "BENCH_profile_mlp4.speedscope.json",
                 json.dumps(doc, indent=2))
