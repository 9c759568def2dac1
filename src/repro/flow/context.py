"""The state a per-output pipeline threads through its passes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.options import SynthesisOptions
from repro.core.redundancy import ReductionStats
from repro.expr import expression as ex
from repro.expr.esop import FprmForm
from repro.expr.memo import ExprMemo
from repro.flow.trace import PassRecord
from repro.ofdd.manager import OfddManager
from repro.spec import OutputSpec


@dataclass
class OutputReport:
    """Diagnostics for one synthesized output.

    ``degraded`` lists the effort-degradation rungs this output took
    under budget pressure, as compact ``stage->fallback`` labels (empty
    for a full-effort run); degraded results are kept out of the result
    cache and surfaced in the trace and ``resilience.*`` metrics.
    """

    name: str
    polarity: int
    num_fprm_cubes: int | None
    method: str
    gates_before_reduction: int
    gates_after_reduction: int
    reduction_stats: ReductionStats | None
    degraded: tuple[str, ...] = ()


@dataclass
class ReducedCandidate:
    """One factor candidate after the redundancy-removal pass.

    ``expr`` and ``reduced`` are literal-space; the gate counts are
    strashed network sizes of each.  ``reduced is expr`` means the
    remover changed nothing (no unreduced variant needs keeping).
    """

    tag: str
    expr: ex.Expr
    reduced: ex.Expr
    gates_before: int
    gates_after: int
    stats: ReductionStats | None


@dataclass
class FlowContext:
    """Per-output pipeline state (paper steps 2-4 for one output).

    Passes populate the fields in order: ``derive-fprm`` sets
    ``polarity``/``form``/``ofdd``; the factor passes append literal-space
    ``candidates``; ``redundancy-removal`` fills ``reduced``;
    ``inverter-cleanup`` produces the best-first PI-space ``variants``
    and the ``report``.  ``best_gates`` tracks the smallest known
    strashed gate count so the manager can record per-pass gate deltas.
    ``memo`` is the run's structural expression memo: the passes hand it
    to every strashed cost, phase rewrite and polarity application, and
    it is dropped with the context.
    """

    output: OutputSpec
    options: SynthesisOptions
    polarity: int = -1
    form: FprmForm | None = None
    ofdd: tuple[OfddManager, int] | None = None
    candidates: list[tuple[str, ex.Expr]] = field(default_factory=list)
    reduced: list[ReducedCandidate] = field(default_factory=list)
    variants: list[tuple[str, ex.Expr]] = field(default_factory=list)
    report: OutputReport | None = None
    best_gates: int | None = None
    records: list[PassRecord] = field(default_factory=list)
    memo: ExprMemo = field(default_factory=ExprMemo, repr=False,
                           compare=False)

    def note_gates(self, gates: int) -> None:
        """Lower the best known gate count (monotone min)."""
        if self.best_gates is None or gates < self.best_gates:
            self.best_gates = gates


@dataclass
class OutputRun:
    """What one output's pipeline run hands back to the driver.

    ``spans`` carries the serialized span tree of a pool worker's
    pipeline (empty when the run happened in-process — the ambient
    tracer already captured it).  ``worker_stats`` ships process-local
    statistics — result-cache hits/misses, OFDD table stats — back
    across the process boundary so the parent can aggregate them into
    the :class:`~repro.flow.trace.FlowTrace` instead of silently
    dropping them.
    """

    variants: list[tuple[str, ex.Expr]]
    report: OutputReport
    records: list[PassRecord] = field(default_factory=list)
    cached: bool = False
    spans: list[dict] = field(default_factory=list)
    worker_stats: dict | None = None
    #: Serialized :class:`~repro.obs.prof.Profile` of a pool worker's
    #: pipeline (``None`` when profiling is off or the run was local —
    #: the parent's own profiler already sampled it).
    profile: dict | None = None
