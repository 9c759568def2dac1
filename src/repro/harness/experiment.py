"""Running one benchmark circuit through both flows.

For a circuit this runs (a) the FPRM flow of the paper and (b) the
SIS-like baseline (best of the script stand-ins), technology-maps both
onto ``mcnc_lite`` and estimates power for both, yielding every quantity a
Table 2 row needs.

Both flows route through the shared :class:`~repro.engine.SynthesisEngine`;
callers running sweeps (table2, ablation) pass one engine in so the
whole sweep shares its cache wiring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.engine import SynthesisEngine
from repro.mapping import map_network, mcnc_lite_library
from repro.power.mapped import estimate_mapped_power


@dataclass
class FlowMetrics:
    """One flow's numbers for one circuit."""

    premap_lits: int
    seconds: float
    mapped_gates: int
    mapped_lits: int
    power_uw: float


@dataclass
class CircuitComparison:
    """Everything a Table 2 row reports."""

    name: str
    inputs: int
    outputs: int
    arithmetic: bool
    baseline: FlowMetrics
    ours: FlowMetrics
    baseline_script: str

    @property
    def improve_lits_pct(self) -> float:
        if self.baseline.mapped_lits == 0:
            return 0.0
        return 100.0 * (
            self.baseline.mapped_lits - self.ours.mapped_lits
        ) / self.baseline.mapped_lits

    @property
    def improve_power_pct(self) -> float:
        if self.baseline.power_uw == 0:
            return 0.0
        return 100.0 * (
            self.baseline.power_uw - self.ours.power_uw
        ) / self.baseline.power_uw

    @property
    def speedup(self) -> float:
        if self.ours.seconds == 0:
            return float("inf")
        return self.baseline.seconds / self.ours.seconds


def run_circuit(
    name: str,
    options: SynthesisOptions | None = None,
    verify: bool = True,
    jobs: int | None = None,
    cache: bool | None = None,
    engine: SynthesisEngine | None = None,
) -> CircuitComparison:
    """Run both flows on one benchmark circuit and collect metrics.

    ``jobs``/``cache`` override the corresponding flow options when
    given: ``jobs`` parallelizes the FPRM per-output pipelines and
    ``cache`` lets repeated sweeps over the same circuits (e.g. the
    Table 2 benchmarks) reuse per-output results within the process.
    ``engine`` lets a sweep share one engine (and thus one cache
    setup, possibly disk-backed) across circuits; without one a plain
    process-local engine is used.
    """
    spec = get(name)
    library = mcnc_lite_library()

    if engine is None:
        engine = SynthesisEngine()
    # Resolve against the engine's base options so engine-level cache
    # wiring (e.g. a disk tier implying cache=True) carries through.
    options = engine.resolve(
        options,
        verify=False if not verify else None,
        jobs=jobs,
        cache=cache,
    )
    ours = engine.synthesize(spec, options)
    ours_mapped = map_network(ours.network, library)
    ours_metrics = FlowMetrics(
        premap_lits=ours.literals,
        seconds=ours.seconds,
        mapped_gates=ours_mapped.gate_count,
        mapped_lits=ours_mapped.literal_count,
        power_uw=estimate_mapped_power(ours_mapped).microwatts,
    )

    base, script = engine.baseline(spec, verify=verify)
    base_mapped = map_network(base.network, library)
    base_metrics = FlowMetrics(
        premap_lits=base.literals,
        seconds=base.seconds,
        mapped_gates=base_mapped.gate_count,
        mapped_lits=base_mapped.literal_count,
        power_uw=estimate_mapped_power(base_mapped).microwatts,
    )

    return CircuitComparison(
        name=name,
        inputs=spec.num_inputs,
        outputs=spec.num_outputs,
        arithmetic=spec.is_arithmetic,
        baseline=base_metrics,
        ours=ours_metrics,
        baseline_script=script,
    )
