"""Wall-clock budgets, cooperative deadline checks, degradation notes.

A :class:`Budget` is created once per synthesis run from
``SynthesisOptions.budget_seconds``, the run budget's one source, and
installed *ambiently*, mirroring the span tracer in
:mod:`repro.obs.spans`: hot loops call the module-level
:func:`budget_tick`, which is a single global read plus an integer
increment when no budget is active, and a strided ``time.monotonic()``
comparison when one is.  On exhaustion the check raises
:class:`~repro.errors.BudgetExceededError`; the stage that catches it
falls down the effort-degradation ladder (see docs/RESILIENCE.md) and
records what it gave up via :func:`note_degradation`.

Deadlines are ``time.monotonic()`` instants — on Linux the monotonic
clock is system-wide, so a deadline computed in the parent is directly
comparable inside a pool worker on the same machine, which is how the
per-run budget spans the process pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import BudgetExceededError

__all__ = [
    "Budget",
    "DegradationRecord",
    "budget_tick",
    "current_budget",
    "install_budget",
    "note_degradation",
]

#: Checks between clock reads in :meth:`Budget.tick` (hot-loop stride).
TICK_STRIDE = 256


@dataclass
class DegradationRecord:
    """One rung taken down the effort-degradation ladder."""

    stage: str  # e.g. "polarity", "factor-ofdd", "esop-minimize"
    fallback: str  # what the stage degraded *to*, e.g. "greedy"
    where: str = ""  # the check that fired, for diagnosis

    def label(self) -> str:
        """Compact ``stage->fallback`` form used in reports."""
        return f"{self.stage}->{self.fallback}"

    def as_dict(self) -> dict:
        return {"stage": self.stage, "fallback": self.fallback,
                "where": self.where}


class Budget:
    """A wall-clock budget with strided cooperative checks.

    ``deadline`` is an absolute ``time.monotonic()`` instant (``None``
    means unlimited — every check is then a cheap no-op).  The budget
    also collects the :class:`DegradationRecord` list for the pipeline
    currently running under it; :meth:`drain_degradations` hands the
    records to whoever builds the output report.
    """

    __slots__ = ("seconds", "deadline", "_ticks", "degradations")

    def __init__(self, seconds: float | None, deadline: float | None):
        self.seconds = seconds
        self.deadline = deadline
        self._ticks = 0
        self.degradations: list[DegradationRecord] = []

    @classmethod
    def start(cls, seconds: float | None) -> "Budget":
        """A budget starting now; ``None`` seconds means unlimited."""
        if seconds is None:
            return cls(None, None)
        return cls(seconds, time.monotonic() + max(0.0, seconds))

    @classmethod
    def until(cls, deadline: float | None) -> "Budget":
        """A budget against an existing monotonic deadline (pool workers)."""
        if deadline is None:
            return cls(None, None)
        return cls(None, deadline)

    # -- checks ------------------------------------------------------------

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, floored at 0)."""
        if self.deadline is None:
            return float("inf")
        return max(0.0, self.deadline - time.monotonic())

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def check(self, where: str) -> None:
        """Raise :class:`BudgetExceededError` when the deadline passed."""
        if self.expired():
            raise BudgetExceededError(where)

    def tick(self, where: str) -> None:
        """Strided check for hot loops: reads the clock every
        :data:`TICK_STRIDE` calls, raising like :meth:`check`."""
        if self.deadline is None:
            return
        self._ticks += 1
        if self._ticks % TICK_STRIDE:
            return
        self.check(where)

    # -- degradation notes -------------------------------------------------

    def note(self, record: DegradationRecord) -> None:
        self.degradations.append(record)

    def drain_degradations(self) -> list[DegradationRecord]:
        """Hand over (and clear) the records noted so far — called once
        per output pipeline so notes never leak across outputs."""
        drained = self.degradations
        self.degradations = []
        return drained


# -- the ambient budget ------------------------------------------------------
#
# Per-thread, like the ambient span tracer: two synthesis runs on
# different threads (the ``repro-serve`` worker threads) must not see —
# or drain degradation notes from — each other's budgets.  Pool workers
# never rely on inheriting this slot across ``fork``: the deadline
# travels in the task payload and each worker installs its own budget.


class _AmbientBudget(threading.local):
    budget: Budget | None = None


_AMBIENT = _AmbientBudget()


def install_budget(budget: Budget | None) -> Budget | None:
    """Make ``budget`` this thread's ambient budget; returns the replaced one."""
    previous = _AMBIENT.budget
    _AMBIENT.budget = budget
    return previous


def current_budget() -> Budget | None:
    return _AMBIENT.budget


def budget_tick(where: str) -> None:
    """Strided ambient check — effectively free when no budget is on."""
    budget = _AMBIENT.budget
    if budget is not None:
        budget.tick(where)


def note_degradation(stage: str, fallback: str, where: str = "") -> None:
    """Record one ladder step on the ambient budget (no-op without one).

    The note lands on the output report of the pipeline being run (via
    :meth:`Budget.drain_degradations`) and from there in the trace and
    the ``resilience.degradations`` metric; a zero-length span marks the
    instant in the span tree when tracing is on.
    """
    budget = _AMBIENT.budget
    if budget is None:
        return
    budget.note(DegradationRecord(stage=stage, fallback=fallback, where=where))
    from repro.obs.spans import span as obs_span

    with obs_span("resilience-degrade", category="resilience") as node:
        if node is not None:
            node.set(stage=stage, fallback=fallback, where=where)
