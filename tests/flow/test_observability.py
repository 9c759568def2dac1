"""Observability through the flow driver: spans, worker stats, fallback."""

import json

import pytest

import repro.core.synthesis as synthesis_mod
from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.flow.cache import get_result_cache
from repro.flow.parallel import SHIPPED_COUNTERS, _pool_worker
from repro.flow.passes import DEFAULT_OUTPUT_PASSES
from repro.flow.trace import FlowTrace
from repro.obs.schema import validate_trace
from repro.obs.spans import current_tracer


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    yield
    get_result_cache().clear()


# -- span tree through the driver --------------------------------------------


def test_serial_run_produces_a_span_tree():
    result = synthesize_fprm(get("rd53"), SynthesisOptions())
    root = result.trace.root
    assert root is not None and root.name == "synthesize:rd53"
    assert current_tracer() is None, "driver must uninstall its tracer"
    output_spans = [c for c in root.children if c.category == "output"]
    assert len(output_spans) == 3
    # Deep-layer spans nest under the pass that called them.
    verify_span = root.find("verify")
    assert verify_span is not None
    assert verify_span.find("equivalence-check") is not None


def test_records_view_matches_span_tree():
    spec = get("rd53")
    result = synthesize_fprm(spec, SynthesisOptions())
    trace = result.trace
    span_passes = [n.name for n in trace.root.walk() if n.category == "pass"]
    assert [r.pass_name for r in trace.records] == span_passes
    # Every per-output pass record carries its output name.
    for record in trace.records:
        if record.pass_name not in ("resub-merge", "verify"):
            assert record.output in spec.output_names


def test_trace_disabled_leaves_no_root_and_no_trace():
    result = synthesize_fprm(get("rd53"), SynthesisOptions(trace=False))
    assert result.trace is None
    assert result.manifest is not None  # manifests are unconditional
    assert current_tracer() is None


def test_trace_json_roundtrip_preserves_the_view():
    result = synthesize_fprm(get("rd53"), SynthesisOptions())
    payload = json.loads(result.trace.to_json())
    assert validate_trace(payload) == []
    clone = FlowTrace.from_dict(payload)
    assert [r.pass_name for r in clone.records] == \
        [r.pass_name for r in result.trace.records]
    assert clone.manifest == result.manifest
    assert clone.hotspots(3) == pytest.approx(result.trace.hotspots(3))


# -- pool runs: adopted spans and shipped worker stats -----------------------


def test_pool_run_adopts_worker_spans():
    spec = get("z4ml")
    result = synthesize_fprm(spec, SynthesisOptions(verify=False, jobs=2))
    trace = result.trace
    assert trace.parallel_fallback is None
    pool_span = trace.root.find("parallel-map")
    assert pool_span is not None
    assert pool_span.attrs["outputs"] == spec.num_outputs
    adopted = [c for c in pool_span.children if c.category == "output"]
    assert len(adopted) == spec.num_outputs
    # Worker spans keep the worker's pid and land inside the pool window.
    parent_pid = trace.root.pid
    assert any(node.pid != parent_pid for node in pool_span.walk()) or \
        trace.jobs == 1
    for node in adopted:
        assert node.start >= pool_span.start
    # The records view covers every worker pass.
    derive_records = trace.records_for("derive-fprm")
    assert len(derive_records) == spec.num_outputs


def test_pool_worker_ships_spans_and_stats():
    spec = get("rd53")
    options = SynthesisOptions(verify=False, cache=True)
    payload = (spec.outputs[0], options, None, None)
    run = _pool_worker(payload)
    assert run.cached is None and run.seconds > 0
    # Spans and counter deltas must cross the process boundary as plain
    # data.
    json.dumps(run.spans)
    json.dumps(run.counters)
    assert len(run.spans) == 1
    assert run.spans[0]["name"] == f"output:{spec.outputs[0].name}"
    assert run.counters.get("ofdd.managers") == 1
    assert all(name.startswith(SHIPPED_COUNTERS) for name in run.counters)
    # A second call in the same process runs all six passes again: the
    # worker never consults the result cache, and ships a fresh delta.
    rerun = _pool_worker(payload)
    assert rerun.cached is None
    names = [s["name"] for s in rerun.spans[0]["children"]]
    assert names == list(DEFAULT_OUTPUT_PASSES)
    assert rerun.counters == run.counters
    assert len(get_result_cache()) == 0


def test_pool_cache_stats_are_aggregated_not_dropped():
    spec = get("z4ml")
    options = SynthesisOptions(verify=False, jobs=2, cache=True)
    result = synthesize_fprm(spec, options)
    trace = result.trace
    assert trace.parallel_fallback is None
    # Cold pooled run: the driver's one lookup per output missed.
    assert trace.cache_hits + trace.cache_misses == spec.num_outputs
    assert trace.cache_misses >= 1


# -- the graceful fallback path ----------------------------------------------


def test_parallel_fallback_is_observable(monkeypatch):
    spec = get("z4ml")
    serial = synthesize_fprm(spec, SynthesisOptions(verify=False))

    def broken_pool(outputs, options, jobs):
        return None, "BrokenProcessPool: injected for test", 0

    monkeypatch.setattr(synthesis_mod, "run_outputs_in_pool", broken_pool)
    result = synthesize_fprm(
        spec, SynthesisOptions(verify=False, jobs=4, cache=True)
    )
    trace = result.trace
    # The reason lands in the trace and its JSON.
    assert trace.parallel_fallback == "BrokenProcessPool: injected for test"
    payload = json.loads(trace.to_json())
    assert validate_trace(payload) == []
    assert payload["parallel_fallback"] == trace.parallel_fallback
    # The serial fallback still produced per-output pass records...
    assert len(trace.records_for("derive-fprm")) == spec.num_outputs
    pool_span = trace.root.find("parallel-map")
    assert pool_span.attrs["fallback"] == trace.parallel_fallback
    # ...and cache accounting: a cold serial fallback is all misses.
    assert trace.cache_misses == spec.num_outputs
    assert trace.cache_hits == 0
    # The result itself is unaffected by the degraded path.
    assert result.two_input_gates == serial.two_input_gates


def test_fallback_then_warm_cache_hits():
    spec = get("rd53")
    options = SynthesisOptions(verify=False, cache=True)
    synthesize_fprm(spec, options)
    warm = synthesize_fprm(spec, options)
    assert warm.trace.cache_hits == spec.num_outputs
    # Cache-hit outputs still appear in the span tree via cache-lookup.
    lookups = warm.trace.records_for("cache-lookup")
    assert len(lookups) == spec.num_outputs
    assert all(r.details.get("hit") for r in lookups)
