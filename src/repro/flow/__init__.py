"""The pass-pipeline architecture of the FPRM flow.

The paper's three explicit stages — FPRM generation (Section 2),
algebraic factorization (Section 3), XOR redundancy removal (Section 4)
— run as named passes over a per-output :class:`FlowContext`, managed by
a :class:`PassManager` that runs each pass inside its span, the one
per-pass clock :class:`FlowTrace` views.  On top sit parallel
multi-output synthesis (:mod:`repro.flow.parallel`) and a
content-addressed result cache (:mod:`repro.flow.cache`).  The default
pipeline is what :func:`repro.core.synthesis.synthesize_fprm` runs.
"""

from repro.flow.base import OutputPass, PassManager
from repro.flow.cache import (
    ResultCache,
    cache_key,
    get_result_cache,
    output_digest,
)
from repro.flow.context import (
    FlowContext,
    OutputReport,
    OutputRun,
    ReducedCandidate,
)
from repro.flow.parallel import resolve_jobs, run_outputs_in_pool
from repro.flow.passes import (
    DEFAULT_OUTPUT_PASSES,
    DeriveFprmPass,
    FactorCubePass,
    FactorOfddPass,
    FactorXorFxPass,
    InverterCleanupPass,
    RedundancyRemovalPass,
    apply_polarity,
    default_output_passes,
    resub_merge,
    run_output,
    run_output_pipeline,
)
from repro.flow.trace import FlowTrace, PassRecord

__all__ = [
    "DEFAULT_OUTPUT_PASSES",
    "DeriveFprmPass",
    "FactorCubePass",
    "FactorOfddPass",
    "FactorXorFxPass",
    "FlowContext",
    "FlowTrace",
    "InverterCleanupPass",
    "OutputPass",
    "OutputReport",
    "OutputRun",
    "PassManager",
    "PassRecord",
    "RedundancyRemovalPass",
    "ReducedCandidate",
    "ResultCache",
    "apply_polarity",
    "cache_key",
    "default_output_passes",
    "get_result_cache",
    "output_digest",
    "resolve_jobs",
    "resub_merge",
    "run_output",
    "run_output_pipeline",
    "run_outputs_in_pool",
]
