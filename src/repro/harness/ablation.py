"""Ablation studies over the design choices DESIGN.md calls out.

Each function runs the FPRM flow with one knob varied on a set of
circuits and returns per-circuit gate counts, so the benchmarks can print
the deltas directly.

Every run goes through the per-output result cache: ablation sweeps
share many (circuit, options) combinations — e.g. the default options
appear as the ``auto``/``with_rr``/``bdd`` variants of three different
sweeps — and cached outputs are skipped instead of re-synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits import get
from repro.core.options import (
    ControllabilityEngine,
    FactorMethod,
    SynthesisOptions,
)
from repro.engine import SynthesisEngine
from repro.fprm.polarity import PolarityStrategy

DEFAULT_CIRCUITS = ["z4ml", "rd53", "rd73", "t481", "majority", "cm82a"]


@dataclass
class AblationRow:
    circuit: str
    variants: dict[str, int]  # variant name -> 2-input gate count

    def best(self) -> str:
        return min(self.variants, key=self.variants.get)


def _run(engine: SynthesisEngine, name: str,
         options: SynthesisOptions) -> int:
    result = engine.synthesize(get(name), options, cache=True)
    return result.two_input_gates


def _sweep(
    variant_options: dict[str, SynthesisOptions],
    circuits: list[str] | None,
    engine: SynthesisEngine | None = None,
) -> list[AblationRow]:
    """Run one ablation sweep.

    Every variant run routes through one shared
    :class:`~repro.engine.SynthesisEngine` (the caller's, else a
    process-local one) with caching forced on — ablation sweeps repeat
    many (circuit, options) combinations.
    """
    owned_engine: SynthesisEngine | None = None
    if engine is None:
        engine = owned_engine = SynthesisEngine()
    try:
        return [
            AblationRow(name, {
                variant: _run(engine, name, options)
                for variant, options in variant_options.items()
            })
            for name in circuits or DEFAULT_CIRCUITS
        ]
    finally:
        if owned_engine is not None:
            owned_engine.close()


def ablate_redundancy_removal(
    circuits: list[str] | None = None,
    engine: SynthesisEngine | None = None,
) -> list[AblationRow]:
    """Factorization alone vs factorization + XOR redundancy removal."""
    return _sweep({
        "with_rr": SynthesisOptions(),
        "without_rr": SynthesisOptions(redundancy_removal=False),
    }, circuits, engine)


def ablate_factor_method(
    circuits: list[str] | None = None,
    engine: SynthesisEngine | None = None,
) -> list[AblationRow]:
    """Paper's method 1 (cubes) vs method 2 (OFDD) vs auto."""
    return _sweep({
        "cube": SynthesisOptions(factor_method=FactorMethod.CUBE),
        "ofdd": SynthesisOptions(factor_method=FactorMethod.OFDD),
        "auto": SynthesisOptions(factor_method=FactorMethod.AUTO),
    }, circuits, engine)


def ablate_polarity(
    circuits: list[str] | None = None,
    engine: SynthesisEngine | None = None,
) -> list[AblationRow]:
    """All-positive vs greedy vs exhaustive polarity search."""
    return _sweep({
        "positive": SynthesisOptions(
            polarity_strategy=PolarityStrategy.POSITIVE),
        "greedy": SynthesisOptions(
            polarity_strategy=PolarityStrategy.GREEDY),
        "auto": SynthesisOptions(
            polarity_strategy=PolarityStrategy.AUTO),
    }, circuits, engine)


def ablate_controllability(
    circuits: list[str] | None = None,
    engine: SynthesisEngine | None = None,
) -> list[AblationRow]:
    """Exact BDD decision vs cube-union enumeration vs simulation only."""
    return _sweep({
        "bdd": SynthesisOptions(
            controllability=ControllabilityEngine.BDD),
        "enumeration": SynthesisOptions(
            controllability=ControllabilityEngine.ENUMERATION),
        "simulation": SynthesisOptions(
            controllability=ControllabilityEngine.SIMULATION_ONLY),
    }, circuits, engine)
