"""Pass protocol and the manager that runs each pass inside its span."""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.flow.context import FlowContext
from repro.obs.spans import span as obs_span


class OutputPass(abc.ABC):
    """One named stage of the per-output pipeline.

    A pass mutates the :class:`~repro.flow.context.FlowContext` in place
    and returns a JSON-serializable ``details`` dict (or ``None``) for
    its trace record.  A pass that does not apply should record
    ``{"skipped": <reason>}`` rather than raise.
    """

    #: Stable name used in traces, docs and tests.
    name: str = "unnamed"

    @abc.abstractmethod
    def run(self, ctx: FlowContext) -> dict | None:
        """Execute the pass on ``ctx``."""


class PassManager:
    """Runs a pass sequence over a context, one span per pass.

    The span is the pass's only clock; it also records the best known
    strashed gate count at entry and exit (``ctx.best_gates``), so a
    trace shows where gates were created and where they were removed.
    """

    def __init__(self, passes: Sequence[OutputPass]):
        if not passes:
            raise ValueError("a pipeline needs at least one pass")
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        self.passes = list(passes)

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, ctx: FlowContext) -> FlowContext:
        for pass_ in self.passes:
            gates_before = ctx.best_gates
            with obs_span(pass_.name, category="pass") as node:
                details = pass_.run(ctx)
                if node is not None:
                    node.set(
                        output=ctx.output.name,
                        gates_before=gates_before,
                        gates_after=ctx.best_gates,
                        details=details or {},
                    )
        return ctx
