"""The reusable synthesis engine layer.

One object — :class:`SynthesisEngine` — owns what every entry point
used to re-wire by hand: options resolution, flow/pipeline assembly,
two-level (memory → disk) result-cache wiring, budget/retry plumbing
and manifest emission.  ``repro-synth``, the Table 2 and ablation
harnesses, the fuzz oracles and the ``repro-serve`` daemon all route
through it; see :mod:`repro.engine.engine`.
"""

from repro.engine.config import (
    CACHE_DIR_ENV,
    EngineConfig,
    resolve_cache_dir,
    resolve_options,
)
from repro.engine.engine import EngineRun, SynthesisEngine

__all__ = [
    "CACHE_DIR_ENV",
    "EngineConfig",
    "EngineRun",
    "SynthesisEngine",
    "resolve_cache_dir",
    "resolve_options",
]
