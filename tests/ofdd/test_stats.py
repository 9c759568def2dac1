"""The OFDD manager's public statistics accessor and memo GC."""

import json

from repro.ofdd.manager import OfddManager


def _parity_manager(width=4):
    manager = OfddManager(width)
    node = manager.from_fprm_masks([1 << v for v in range(width)])
    return manager, node


def test_stats_shape_and_json_cleanliness():
    manager, _ = _parity_manager()
    stats = manager.stats()
    for key in ("size", "unique", "computed", "hits", "misses",
                "hit_rate", "gc"):
        assert key in stats
    assert set(stats["computed"]) == {"xor", "and"}
    json.dumps(stats)  # must be directly embeddable in trace JSON


def test_unique_and_computed_tables_are_counted():
    manager = OfddManager(3)
    a = manager.literal(0)
    b = manager.literal(1)
    manager.xor_(a, b)
    first = manager.stats()
    assert first["computed"]["xor"]["misses"] >= 1
    # Same apply again: pure computed-table hit, no new nodes.
    manager.xor_(a, b)
    second = manager.stats()
    assert second["computed"]["xor"]["hits"] == \
        first["computed"]["xor"]["hits"] + 1
    assert second["size"] == first["size"]
    # Rebuilding an existing node goes through the unique table.
    unique_hits = second["unique"]["hits"]
    assert manager.literal(0) == a
    assert manager.stats()["unique"]["hits"] == unique_hits + 1


def test_terminal_fast_paths_are_not_counted():
    manager = OfddManager(2)
    a = manager.literal(0)
    before = manager.stats()["computed"]["xor"]["misses"]
    assert manager.xor_(a, 0) == a        # f ⊕ 0 = f, no table consult
    assert manager.xor_(a, a) == 0        # f ⊕ f = 0, no table consult
    assert manager.stats()["computed"]["xor"]["misses"] == before


def test_hit_rate_is_bounded_and_zero_safe():
    fresh = OfddManager(2)
    assert fresh.stats()["hit_rate"] == 0.0
    manager, _ = _parity_manager()
    manager.xor_(manager.literal(0), manager.literal(1))
    manager.xor_(manager.literal(0), manager.literal(1))
    rate = manager.stats()["hit_rate"]
    assert 0.0 < rate <= 1.0


def test_gc_drops_memos_but_preserves_nodes_and_results():
    manager, node = _parity_manager()
    manager.cube_count(node)  # populate the path memo
    size_before = manager.size
    dropped = manager.gc()
    assert dropped > 0
    stats = manager.stats()
    assert stats["gc"] == 1
    assert manager.size == size_before  # node ids stay valid
    # Results recompute identically after the memo flush.
    assert manager.cube_count(node) == 4
    a, b = manager.literal(0), manager.literal(1)
    assert manager.xor_(a, b) == manager.xor_(a, b)
    assert manager.gc() >= 0
    assert manager.stats()["gc"] == 2


def test_stats_flow_into_pass_details():
    from repro.core.options import SynthesisOptions
    from repro.expr import expression as ex
    from repro.flow.passes import DENSE_SYNTH_LIMIT, run_output_pipeline
    from repro.flow.trace import FlowTrace
    from repro.obs.spans import SpanTracer
    from repro.spec import OutputSpec

    # Beyond DENSE_SYNTH_LIMIT: forces the diagram-only derivation route.
    width = DENSE_SYNTH_LIMIT + 2
    output = OutputSpec("p", tuple(range(width)),
                        expr=ex.xor_([ex.Lit(v) for v in range(width)]))
    tracer = SpanTracer()
    with tracer.activate():
        run_output_pipeline(output, SynthesisOptions(verify=False))
    # The pass spans carry each pass's details.
    records = FlowTrace(circuit="p", root=tracer.finish()).records
    by_name = {r.pass_name: r for r in records}
    ofdd_stats = by_name["derive-fprm"].details.get("ofdd")
    assert ofdd_stats is not None and ofdd_stats["size"] > 2
    assert "ofdd" in by_name["factor-ofdd"].details


def test_publish_metrics_is_delta_safe():
    """Re-publishing a manager adds only the growth since last publish."""
    from repro.obs.metrics import get_metrics_registry

    registry = get_metrics_registry()
    manager, _ = _parity_manager()
    managers_before = registry.counter("ofdd.managers").value
    nodes_before = registry.counter("ofdd.nodes").value
    stats = manager.publish_metrics()
    assert registry.counter("ofdd.managers").value == managers_before + 1
    assert registry.counter("ofdd.nodes").value == \
        nodes_before + stats["size"]
    # No new work: a second publish adds nothing.
    manager.publish_metrics()
    assert registry.counter("ofdd.managers").value == managers_before + 1
    assert registry.counter("ofdd.nodes").value == \
        nodes_before + stats["size"]
    # More work: only the delta lands.
    manager.xor_(manager.literal(0), manager.literal(2))
    grown = manager.publish_metrics()
    assert registry.counter("ofdd.nodes").value == \
        nodes_before + grown["size"]


def test_ofdd_counters_surface_in_trace_metrics_and_summary():
    from repro.core.options import SynthesisOptions
    from repro.core.synthesis import FprmSynthesizer
    from repro.expr import expression as ex
    from repro.flow.passes import DENSE_SYNTH_LIMIT
    from repro.spec import CircuitSpec, OutputSpec

    width = DENSE_SYNTH_LIMIT + 2
    spec = CircuitSpec(
        name="wide-parity",
        num_inputs=width,
        outputs=[OutputSpec("p", tuple(range(width)),
                            expr=ex.xor_([ex.Lit(v) for v in range(width)]))],
    )
    result = FprmSynthesizer(
        SynthesisOptions(verify=False, trace=True)
    ).run(spec)
    trace = result.trace
    assert trace is not None
    assert trace.metrics.get("ofdd.managers", 0) >= 1
    assert trace.metrics.get("ofdd.nodes", 0) > 2
    line = trace.ofdd_summary()
    assert line.startswith("ofdd:")
    assert line in trace.summary()
    # The metrics survive the JSON round trip repro-trace consumes.
    from repro.flow.trace import FlowTrace

    back = FlowTrace.from_dict(json.loads(trace.to_json()))
    assert back.metrics == trace.metrics
    assert back.ofdd_summary() == line
