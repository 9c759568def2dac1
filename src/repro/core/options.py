"""Knobs of the FPRM synthesis flow.

:class:`SynthesisOptions` is the one source of every run value: the
CLIs, the serve JSON and library callers all set it, and no environment
variable overrides a field.  Limits no caller varies are module
constants below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.fprm.polarity import PolarityStrategy

#: Largest FPRM form whose cube-subset unions the ``ENUMERATION`` engine
#: adds to the simulated patterns; a larger form adds none.
ENUMERATION_CUBE_LIMIT = 14

#: Node limit of each redundancy remover's exact BDD engine; an output
#: whose BDD outgrows it is left unreduced (``skipped_no_engine``).
BDD_NODE_BUDGET = 200_000


class FactorMethod(str, enum.Enum):
    """Which of the paper's two factorization methods to run.

    ``AUTO`` runs the cube method when the FPRM cube set is available and
    small, the OFDD method otherwise — and, when both are cheap, keeps the
    better result (the paper reports the methods are "comparable but the
    second method has better results on a few more test cases").
    """

    CUBE = "cube"
    OFDD = "ofdd"
    AUTO = "auto"


class ControllabilityEngine(str, enum.Enum):
    """How missing XOR input patterns are decided (paper Section 4).

    The paper simulates the OC/AO/AZ sets and resolves the remaining
    patterns with a cube-parity enumeration whose details were cut for
    space.  ``BDD`` replaces that enumeration with an exact BDD decision;
    ``ENUMERATION`` enumerates cube-subset union patterns exhaustively
    (exact for outputs with few cubes); ``SIMULATION_ONLY`` reduces only
    what the simulated pattern set itself proves — sound but weakest.
    """

    BDD = "bdd"
    ENUMERATION = "enumeration"
    SIMULATION_ONLY = "simulation-only"


@dataclass
class SynthesisOptions:
    """Options for :class:`repro.core.synthesis.FprmSynthesizer`."""

    polarity_strategy: PolarityStrategy = PolarityStrategy.AUTO
    factor_method: FactorMethod = FactorMethod.AUTO
    redundancy_removal: bool = True
    literal_cleanup: bool = True
    controllability: ControllabilityEngine = ControllabilityEngine.BDD
    cube_limit: int = 2048
    verify: bool = True
    #: Outputs synthesized concurrently (process pool); 0 = all cores.
    jobs: int = 1
    #: Collect a per-pass :class:`~repro.flow.trace.FlowTrace` on the result.
    trace: bool = True
    #: Attach the sampling profiler (:mod:`repro.obs.prof`) to the run —
    #: stack samples attributed to the enclosing span, shipped back from
    #: pool workers like spans are.  Off by default; like ``trace`` it
    #: never changes the synthesized result.
    profile: bool = False
    #: Sampling period in seconds when ``profile`` is on (200 Hz default).
    profile_interval: float = 0.005
    #: Consult/populate the process-wide per-output result cache.
    cache: bool = False
    #: Wall-clock budget for the whole run (seconds); ``None`` = unlimited.
    #: On exhaustion stages degrade to cheaper-but-correct results instead
    #: of failing — see docs/RESILIENCE.md for the ladder.
    budget_seconds: float | None = None
    #: Watchdog for hung pool workers: if no output completes for this
    #: many seconds, the pool is killed and its unfinished outputs run
    #: in-process (``None`` or a non-positive value = disabled).
    #: Parallel runs only.
    timeout_per_output: float | None = None

    def replace(self, **changes) -> "SynthesisOptions":
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)

    def semantic_fingerprint(self) -> tuple:
        """The knobs that change *what* is synthesized (cache key part).

        Excludes ``verify``, ``jobs``, ``trace`` and ``cache`` itself:
        those change how the flow runs, never the resulting variants.
        The resilience knobs (``budget_seconds``, ``timeout_per_output``)
        are excluded too: an *un-degraded* result is identical with or
        without them, and results that did degrade are never stored in
        the cache (see :meth:`ResultCache.store`'s callers), so budgeted
        and unbudgeted runs share entries safely.
        Every new option that affects results must be added here.
        """
        return (
            str(self.polarity_strategy.value),
            str(self.factor_method.value),
            self.redundancy_removal,
            self.literal_cleanup,
            str(self.controllability.value),
            self.cube_limit,
            # Former option fields, now fixed: their values stay in the
            # tuple so every cache and request key stays the same.
            ENUMERATION_CUBE_LIMIT,
            BDD_NODE_BUDGET,
            True,  # the direct-specification fallback, always on
        )
