"""Sampling profiler with span attribution and flamegraph exports.

See :mod:`repro.obs.prof.profiler` for the sampler itself and
:mod:`repro.obs.prof.export` for the collapsed-stack / speedscope
flamegraph formats.  ``docs/OBSERVABILITY.md`` ("Profiling") covers
design, sample weights, overhead numbers and viewer how-tos.
"""

from repro.obs.prof.export import (
    profile_to_collapsed,
    profile_to_speedscope,
    write_profile,
)
from repro.obs.prof.profiler import DEFAULT_INTERVAL, Profile, SamplingProfiler

__all__ = [
    "DEFAULT_INTERVAL",
    "Profile",
    "SamplingProfiler",
    "profile_to_collapsed",
    "profile_to_speedscope",
    "write_profile",
]
