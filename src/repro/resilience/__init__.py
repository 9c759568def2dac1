"""Resilience layer: deadlines, degradation, fault injection.

The DAC'96 flow has several loops whose worst case is exponential —
the exhaustive polarity scan, EXORCISM-style cube-pair minimization,
OFDD construction — and a production service cannot let one adversarial
output stall a whole batch.  This package supplies the machinery the
rest of the tree threads through:

:mod:`repro.resilience.budget`
    A wall-clock :class:`~repro.resilience.budget.Budget` carried
    ambiently per run and checked cooperatively inside the expensive
    loops; on exhaustion each stage falls down an *effort-degradation
    ladder* to a cheaper-but-correct result, recording what it gave up.
:mod:`repro.resilience.faultfs`
    Deterministic filesystem fault injection (``ENOSPC``/``EIO``/
    partial-write/fsync-failure by call count and path pattern) behind
    the ``open``/``write``/``fsync``/``rename`` primitives used by the
    serve spool and key locks, the disk cache (entries and quarantine
    moves) and the structured log sink.

Every other fault gets one response where it happens: a crashed or
hung pool worker costs its output one in-process run
(:mod:`repro.flow.parallel`), and a failed disk-cache store costs a
later recompute (:mod:`repro.flow.disk_cache`).

See docs/RESILIENCE.md for the failure taxonomy and the ladder.
"""

from repro.resilience.budget import (
    Budget,
    DegradationRecord,
    budget_tick,
    current_budget,
    install_budget,
    note_degradation,
)

__all__ = [
    "Budget",
    "DegradationRecord",
    "budget_tick",
    "current_budget",
    "install_budget",
    "note_degradation",
]
