"""The state a per-output pipeline threads through its passes, and the
:class:`OutputRun` it hands back (per-pass times live in pass spans)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.options import SynthesisOptions
from repro.core.redundancy import ReductionStats, SimulationPatterns
from repro.expr import expression as ex
from repro.expr.esop import FprmForm
from repro.expr.memo import ExprMemo
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
    to every strashed cost, phase rewrite and polarity application;
    ``patterns`` is the simulation pattern set that ``redundancy-removal``
    builds from ``form`` once and hands to every candidate's remover.
    Both are dropped with the context.
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
    memo: ExprMemo = field(default_factory=ExprMemo, repr=False,
                           compare=False)
    patterns: SimulationPatterns | None = field(default=None, repr=False,
                                                compare=False)

    def note_gates(self, gates: int) -> None:
        """Lower the best known gate count (monotone min)."""
        if self.best_gates is None or gates < self.best_gates:
            self.best_gates = gates


@dataclass
class OutputRun:
    """What one output's run hands back to the driver: plain data that
    crosses the process-pool boundary as it is.

    ``seconds`` is the pipeline's wall time (for a cache hit, that of the
    stored run); ``cached`` names the tier that answered a hit
    (``"memory"``/``"disk"``).  Only a pool worker fills ``spans``,
    ``profile`` and ``counters``: in-process runs were already seen by
    the driver's own tracer, profiler and registry.
    """

    variants: list[tuple[str, ex.Expr]]
    report: OutputReport
    seconds: float = 0.0
    cached: str | None = None
    spans: list[dict] = field(default_factory=list)
    profile: dict | None = None
    counters: dict[str, float] = field(default_factory=dict)
