"""Exception hierarchy for the repro library."""

__all__ = [
    "BudgetExceededError",
    "CacheIntegrityError",
    "DimensionError",
    "LibraryError",
    "OverloadedError",
    "ParseError",
    "ReproError",
    "TooManyVariablesError",
    "UnknownCircuitError",
    "VerificationError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(ReproError):
    """Operands talk about different numbers of variables."""


class TooManyVariablesError(ReproError):
    """A truth-table based operation was requested for too large a support."""


class ParseError(ReproError):
    """Malformed textual input (PLA, genlib, expression)."""


class VerificationError(ReproError):
    """A synthesized network is not equivalent to its specification."""


class LibraryError(ReproError):
    """A cell library is malformed or cannot cover the subject graph."""


class UnknownCircuitError(ReproError, KeyError):
    """A benchmark circuit name is not in the registry."""


class BudgetExceededError(ReproError):
    """A cooperative deadline check fired inside an expensive loop.

    Raised by :meth:`repro.resilience.budget.Budget.check` (and the
    strided :meth:`~repro.resilience.budget.Budget.tick`) when the run's
    wall-clock budget is exhausted.  Stages of the flow catch this and
    degrade to a cheaper-but-correct result (see docs/RESILIENCE.md);
    it only propagates out of :func:`repro.core.synthesis.synthesize_fprm`
    when no fallback rung exists.
    """

    def __init__(self, where: str, remaining: float = 0.0):
        self.where = where
        self.remaining = remaining
        super().__init__(f"budget exhausted in {where}")


class WorkerCrashError(ReproError):
    """An output failed in a pool worker and again in-process.

    A crashed, hung or failing worker costs its output one in-process
    run; this is raised only when that run fails too, with an error
    that is not a :class:`ReproError` (``attempts`` counts both).
    """

    def __init__(self, output: str, attempts: int, reason: str):
        self.output = output
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"worker for output {output!r} failed after {attempts} "
            f"attempt(s): {reason}"
        )


class OverloadedError(ReproError):
    """The serving tier shed this request instead of queueing it.

    Raised at submission time when the job queue is past its high-water
    mark.  The HTTP layer maps it to ``503 Service Unavailable`` with a
    ``Retry-After`` header — load shedding is loud and typed, never a
    silent queue that grows until the process dies.
    """

    def __init__(self, reason: str, retry_after: float):
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(
            f"server overloaded ({reason}); retry in {retry_after:.0f}s"
        )


class CacheIntegrityError(ReproError):
    """A result-cache entry failed its checksum verification.

    The cache quarantines and recomputes corrupt entries instead of
    raising during normal operation; this error is reserved for callers
    that ask for strict verification (``ResultCache.verify_all``).
    """
