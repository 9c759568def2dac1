"""Resilience layer: deadlines, degradation, retries, fault injection.

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
:mod:`repro.resilience.retry`
    A :class:`~repro.resilience.retry.RetryPolicy` with capped
    exponential backoff and seeded (deterministic) jitter, used by the
    crash-isolated process pool in :mod:`repro.flow.parallel`.
:mod:`repro.resilience.breaker`
    A :class:`~repro.resilience.breaker.CircuitBreaker` (consecutive
    failures trip it open, a timed half-open probe closes it) that lets
    the disk-backed cache degrade to memory-only behavior while a disk
    is full or broken.
:mod:`repro.resilience.faultfs`
    Deterministic filesystem fault injection (``ENOSPC``/``EIO``/
    partial-write/fsync-failure by call count and path pattern) behind
    the ``open``/``write``/``fsync``/``rename`` primitives used by the
    serve spool and key locks, the disk cache (entries and quarantine
    moves) and the structured log sink.

See docs/RESILIENCE.md for the failure taxonomy and the ladder.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import (
    Budget,
    DegradationRecord,
    budget_tick,
    current_budget,
    effective_budget_seconds,
    install_budget,
    note_degradation,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "Budget",
    "CircuitBreaker",
    "DegradationRecord",
    "RetryPolicy",
    "budget_tick",
    "current_budget",
    "effective_budget_seconds",
    "install_budget",
    "note_degradation",
]
