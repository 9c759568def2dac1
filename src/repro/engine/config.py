"""Engine configuration: options resolution and cache-tier settings.

Every entry point used to hand-assemble its :class:`SynthesisOptions`
with a chain of ``replace`` calls and its own cache wiring; this module
is the one place that translation lives now.  :func:`resolve_options`
folds a sparse override set (``None`` = keep) into a base option set,
and :class:`EngineConfig` adds the non-flow concerns an engine owns:
which flow to run, and whether/where the persistent disk cache tier
lives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.options import SynthesisOptions
from repro.flow.disk_cache import DEFAULT_MAX_BYTES

__all__ = [
    "CACHE_DIR_ENV",
    "EngineConfig",
    "resolve_cache_dir",
    "resolve_options",
]

#: Environment default for the disk-cache directory: set it once on a
#: machine and every CLI/harness/service run shares one result store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_options(
    base: SynthesisOptions | None = None, **overrides
) -> SynthesisOptions:
    """Fold sparse overrides into ``base`` (``None`` values = keep).

    This is the single options-resolution seam the CLIs and harnesses
    route through: argparse defaults of ``None`` pass straight in, and
    only the knobs a caller actually set are replaced.
    """
    options = base if base is not None else SynthesisOptions()
    changes = {
        name: value for name, value in overrides.items() if value is not None
    }
    return options.replace(**changes) if changes else options


def resolve_cache_dir(explicit: str | None = None) -> str | None:
    """Effective disk-cache directory: explicit wins, else the env var."""
    if explicit is not None:
        return explicit
    return os.environ.get(CACHE_DIR_ENV) or None


@dataclass
class EngineConfig:
    """Everything a :class:`~repro.engine.engine.SynthesisEngine` needs.

    ``cache_dir=None`` means memory-only caching (when ``options.cache``
    is on at all); a directory makes the engine attach a
    :class:`~repro.flow.disk_cache.DiskCacheTier` there and implies
    ``options.cache=True`` — a configured disk store that is never
    consulted would be pure surprise.
    """

    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    flow: str = "fprm"
    cache_dir: str | None = None
    cache_max_bytes: int = DEFAULT_MAX_BYTES

    def __post_init__(self) -> None:
        if self.flow not in ("fprm", "sislite"):
            raise ValueError(f"unknown flow {self.flow!r}")
        if self.cache_dir is not None and not self.options.cache:
            self.options = replace(self.options, cache=True)
