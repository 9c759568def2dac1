"""End-to-end FPRM synthesis driver behaviour."""

import pytest

from repro.circuits import get
from repro.core.options import (
    ControllabilityEngine,
    FactorMethod,
    SynthesisOptions,
)
from repro.core.synthesis import FprmSynthesizer, apply_polarity, synthesize_fprm
from repro.expr import expression as ex
from repro.fprm.polarity import PolarityStrategy
from repro.network.verify import equivalent_to_spec
from repro.spec import CircuitSpec, OutputSpec
from repro.truth.table import TruthTable


def tiny_spec(fn, n=4, name="tiny"):
    table = TruthTable.from_function(n, fn)
    return CircuitSpec(
        name=name, num_inputs=n,
        outputs=[OutputSpec("f", tuple(range(n)), table=table)],
    )


def test_every_method_produces_equivalent_networks():
    spec = tiny_spec(lambda m: int(m.bit_count() >= 2))
    for method in FactorMethod:
        result = synthesize_fprm(
            spec, SynthesisOptions(factor_method=method)
        )
        assert result.verify, method


def test_every_engine_produces_equivalent_networks():
    spec = tiny_spec(lambda m: int((m & 3) == 3 or m == 0b1010))
    for engine in ControllabilityEngine:
        result = synthesize_fprm(
            spec, SynthesisOptions(controllability=engine)
        )
        assert result.verify, engine


def test_polarity_strategies_all_verify():
    spec = tiny_spec(lambda m: int(m != 0))
    for strategy in PolarityStrategy:
        result = synthesize_fprm(
            spec, SynthesisOptions(polarity_strategy=strategy)
        )
        assert result.verify, strategy


def test_reports_carry_diagnostics():
    result = synthesize_fprm(get("z4ml"))
    assert len(result.reports) == 4
    for report in result.reports:
        assert report.num_fprm_cubes is not None
        assert report.method.startswith(("cube", "ofdd", "xor-fx"))
        assert report.gates_after_reduction <= report.gates_before_reduction


def test_constant_outputs():
    spec = CircuitSpec(
        name="const", num_inputs=2,
        outputs=[
            OutputSpec("zero", (0, 1), table=TruthTable.constant(2, 0)),
            OutputSpec("one", (0, 1), table=TruthTable.constant(2, 1)),
        ],
    )
    result = synthesize_fprm(spec)
    assert result.verify
    assert result.two_input_gates == 0


def test_single_literal_output():
    spec = tiny_spec(lambda m: (m >> 2) & 1)
    result = synthesize_fprm(spec)
    assert result.verify
    assert result.two_input_gates == 0


def test_apply_polarity_semantics():
    e = ex.xor_([ex.Lit(0), ex.and_([ex.Lit(1), ex.Lit(2)])])
    polarity = 0b011  # variable 2 negative
    rewritten = apply_polarity(e, polarity)
    for m in range(8):
        literals = m ^ 0b100  # literal 2 = x̄2
        assert rewritten.evaluate(m) == e.evaluate(literals)


def test_verification_failure_raises(monkeypatch):
    from repro import core
    from repro.flow.context import OutputRun

    spec = tiny_spec(lambda m: m & 1)
    synthesizer = FprmSynthesizer()

    def sabotage(output, options):
        expr = ex.Lit(1)
        return OutputRun([("cube", expr)], core.synthesis.OutputReport(
            name="f", polarity=0b1111, num_fprm_cubes=1, method="cube",
            gates_before_reduction=0, gates_after_reduction=0,
            reduction_stats=None,
        ))

    # The driver's one per-output runner.
    monkeypatch.setattr(core.synthesis, "run_output", sabotage)
    from repro.errors import VerificationError

    with pytest.raises(VerificationError):
        synthesizer.run(spec)


def test_multi_output_sharing_through_strash():
    # Two outputs equal to the same function: the network must share.
    table = TruthTable.from_function(3, lambda m: int(m.bit_count() >= 2))
    spec = CircuitSpec(
        name="twins", num_inputs=3,
        outputs=[
            OutputSpec("f", (0, 1, 2), table=table),
            OutputSpec("g", (0, 1, 2), table=table),
        ],
    )
    single = synthesize_fprm(
        CircuitSpec(name="one", num_inputs=3,
                    outputs=[OutputSpec("f", (0, 1, 2), table=table)])
    )
    double = synthesize_fprm(spec)
    assert double.verify
    assert double.two_input_gates == single.two_input_gates


def test_result_metrics_consistent():
    result = synthesize_fprm(get("rd53"))
    assert result.literals == 2 * result.two_input_gates
    assert result.seconds >= 0
    net = result.network
    assert equivalent_to_spec(net, get("rd53"))
