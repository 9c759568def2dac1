"""The pass pipeline: staging, parallelism, telemetry."""

import json
import os

import pytest

from repro.circuits import get
from repro.core.options import FactorMethod, SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.flow import (
    DEFAULT_OUTPUT_PASSES,
    FlowContext,
    FlowTrace,
    OutputPass,
    PassManager,
    default_output_passes,
    resolve_jobs,
    run_output_pipeline,
)
from repro.network.blif import write_blif
from repro.network.verify import equivalent_to_spec
from repro.obs.spans import SpanTracer

MULTI_OUTPUT = ["z4ml", "rd53"]


def traced_pipeline(output, options, passes=None):
    """Run one output's pipeline under a tracer: the context, and the
    pass records read off its spans (the flow's only per-pass clock)."""
    tracer = SpanTracer()
    with tracer.activate():
        ctx = run_output_pipeline(output, options, passes)
    return ctx, FlowTrace(circuit=output.name, root=tracer.finish()).records


# -- parallel vs serial ------------------------------------------------------


@pytest.mark.parametrize("name", MULTI_OUTPUT)
def test_parallel_matches_serial_bit_identical(name):
    spec = get(name)
    serial = synthesize_fprm(spec, SynthesisOptions(verify=False))
    parallel = synthesize_fprm(spec, SynthesisOptions(verify=False, jobs=2))
    assert parallel.trace.parallel_fallback is None
    assert parallel.two_input_gates == serial.two_input_gates
    assert parallel.literals == serial.literals
    # Bit-identical networks, not merely equal cost.
    assert write_blif(parallel.network) == write_blif(serial.network)
    assert equivalent_to_spec(parallel.network, spec)


def test_jobs_zero_means_all_usable_cores():
    # jobs=0 resolves to the cores this process may actually run on
    # (the CPU affinity mask), not the machine-wide count — the two
    # differ in containers and under taskset/cgroup pinning.
    try:
        usable = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    assert resolve_jobs(0) == usable
    assert resolve_jobs(1) == 1
    assert resolve_jobs(-3) == 1
    result = synthesize_fprm(get("rd53"), SynthesisOptions(jobs=0))
    assert result.verify
    assert result.trace.jobs == usable


def test_acceptance_jobs4_vs_serial():
    """Acceptance: jobs=4 identical gate count + verified equivalence."""
    spec = get("z4ml")
    one = synthesize_fprm(spec, SynthesisOptions(jobs=1))
    four = synthesize_fprm(spec, SynthesisOptions(jobs=4))
    assert four.verify and one.verify
    assert four.two_input_gates == one.two_input_gates
    trace = four.trace
    assert len(trace.pass_names()) >= 5
    for record in trace.records:
        assert record.seconds >= 0.0


# -- trace contents ----------------------------------------------------------


def test_trace_pass_names_and_structure():
    spec = get("z4ml")
    result = synthesize_fprm(spec)
    trace = result.trace
    assert trace is not None
    assert trace.circuit == "z4ml"
    names = trace.pass_names()
    for expected in DEFAULT_OUTPUT_PASSES:
        assert expected in names
    assert "resub-merge" in names and "verify" in names
    # One record per pass per output, plus the network-level records.
    for output in spec.outputs:
        per_output = trace.records_for(output=output.name)
        assert [r.pass_name for r in per_output] == list(DEFAULT_OUTPUT_PASSES)
    assert len(trace.records_for("resub-merge")) == 1
    totals = trace.seconds_by_pass()
    assert set(totals) == set(names)
    assert all(seconds >= 0.0 for seconds in totals.values())


@pytest.mark.parametrize("name", MULTI_OUTPUT)
def test_trace_gate_counts_monotone_where_guaranteed(name):
    result = synthesize_fprm(get(name), SynthesisOptions(verify=False))
    trace = result.trace
    reducing = trace.records_for("redundancy-removal") + \
        trace.records_for("resub-merge")
    assert reducing
    for record in reducing:
        assert record.gates_before is not None
        assert record.gates_after is not None
        assert record.gates_after <= record.gates_before
        assert record.gate_delta <= 0


def test_trace_json_roundtrip(tmp_path):
    result = synthesize_fprm(get("rd53"))
    payload = json.loads(result.trace.to_json())
    assert payload["circuit"] == "rd53"
    assert payload["records"]
    for record in payload["records"]:
        assert {"pass", "output", "seconds", "details"} <= set(record)
    path = tmp_path / "trace.json"
    path.write_text(result.trace.to_json())
    assert json.loads(path.read_text())["seconds_by_pass"]


def test_trace_disabled():
    result = synthesize_fprm(get("rd53"), SynthesisOptions(trace=False))
    assert result.trace is None
    assert result.verify


def test_trace_summary_mentions_passes():
    result = synthesize_fprm(get("rd53"))
    text = result.trace.summary()
    assert "redundancy-removal" in text and "rd53" in text


# -- resub-mix tagging -------------------------------------------------------


def test_resub_mix_tags_only_changed_outputs():
    result = synthesize_fprm(get("z4ml"))
    methods = [report.method for report in result.reports]
    tagged = [m for m in methods if m.endswith("(resub-mix)")]
    winner = result.trace.records_for("resub-merge")[0].details["winner"]
    if winner == "local-best":
        assert not tagged
    else:
        # A whole-network candidate won; only the outputs whose realized
        # expression actually changed may carry the tag — not all of them
        # (z4ml's winner differs from the per-output choice on a strict
        # subset of outputs).
        assert tagged
        assert len(tagged) < len(methods)


# -- pipeline plumbing -------------------------------------------------------


def test_run_output_pipeline_populates_context():
    spec = get("rd53")
    ctx, records = traced_pipeline(spec.outputs[0], SynthesisOptions())
    assert ctx.variants and ctx.report is not None
    assert ctx.report.name == spec.outputs[0].name
    assert [r.pass_name for r in records] == list(DEFAULT_OUTPUT_PASSES)
    # Variants are best-first by recorded score.
    assert ctx.best_gates == ctx.report.gates_after_reduction


def test_pass_manager_rejects_bad_pipelines():
    with pytest.raises(ValueError):
        PassManager([])
    with pytest.raises(ValueError):
        PassManager([default_output_passes()[0], default_output_passes()[0]])


def test_custom_pass_runs_and_records():
    class CountCandidates(OutputPass):
        name = "count-candidates"

        def run(self, ctx: FlowContext) -> dict:
            return {"count": len(ctx.candidates)}

    spec = get("rd53")
    passes = default_output_passes() + [CountCandidates()]
    ctx, records = traced_pipeline(spec.outputs[0], SynthesisOptions(),
                                   passes)
    record = records[-1]
    assert record.pass_name == "count-candidates"
    assert record.details["count"] == len(ctx.candidates) > 0


def test_factor_method_skips_recorded():
    spec = get("rd53")
    _, records = traced_pipeline(
        spec.outputs[0],
        SynthesisOptions(factor_method=FactorMethod.CUBE),
    )
    by_name = {r.pass_name: r for r in records}
    assert "skipped" in by_name["factor-ofdd"].details
    assert "skipped" in by_name["factor-xorfx"].details
    assert "gates" in by_name["factor-cube"].details
