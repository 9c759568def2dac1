"""Run manifests: what exactly produced a synthesis result.

A :class:`RunManifest` pins down everything needed to reproduce (or
refuse to compare) a run: a content digest of the input specification,
the semantic-options fingerprint, the package version and the
python/platform it ran on.  Every :class:`~repro.core.synthesis.
SynthesisResult` carries one, and it is embedded in the trace JSON, so a
reader can tell whether two traces came from the same input and option
set.

Digests reuse the content-addressed machinery of the result cache
(:func:`repro.flow.cache.output_digest`), and the cache key's options
part is :func:`options_fingerprint` itself, so the manifest's digests
and the cache keys can never drift apart.
"""

from __future__ import annotations

import hashlib
import platform
import sys
import time
from dataclasses import dataclass, field

MANIFEST_SCHEMA_VERSION = 1


def spec_digest(spec) -> str:
    """Content digest of a whole :class:`~repro.spec.CircuitSpec`."""
    from repro.flow.cache import output_digest

    h = hashlib.sha256()
    h.update(f"{spec.name};{spec.num_inputs};{spec.num_outputs};".encode())
    for output in spec.outputs:
        h.update(output.name.encode("utf-8"))
        h.update(b"=")
        h.update(output_digest(output).encode("ascii"))
        h.update(b";")
    return h.hexdigest()


def options_fingerprint(options) -> str:
    """Digest of the semantic knobs: the options part of every result
    cache key, run manifest and serve request key."""
    return hashlib.sha256(
        repr(options.semantic_fingerprint()).encode("utf-8")
    ).hexdigest()[:16]


def _package_version() -> str:
    try:
        import repro

        return getattr(repro, "__version__", "unknown")
    except Exception:  # pragma: no cover - import cycles during bootstrap
        return "unknown"


@dataclass
class RunManifest:
    """Identity card of one synthesis run."""

    circuit: str
    input_digest: str
    options_fingerprint: str
    num_inputs: int
    num_outputs: int
    package_version: str = ""
    python: str = ""
    platform: str = ""
    created_unix: float = 0.0
    schema: int = MANIFEST_SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    @classmethod
    def for_run(cls, spec, options, **extra) -> "RunManifest":
        return cls(
            circuit=spec.name,
            input_digest=spec_digest(spec),
            options_fingerprint=options_fingerprint(options),
            num_inputs=spec.num_inputs,
            num_outputs=spec.num_outputs,
            package_version=_package_version(),
            python=sys.version.split()[0],
            platform=f"{platform.system()}-{platform.machine()}",
            created_unix=time.time(),
            extra=dict(extra),
        )

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "circuit": self.circuit,
            "input_digest": self.input_digest,
            "options_fingerprint": self.options_fingerprint,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
            "package_version": self.package_version,
            "python": self.python,
            "platform": self.platform,
            "created_unix": self.created_unix,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        return cls(
            circuit=payload.get("circuit", ""),
            input_digest=payload.get("input_digest", ""),
            options_fingerprint=payload.get("options_fingerprint", ""),
            num_inputs=payload.get("num_inputs", 0),
            num_outputs=payload.get("num_outputs", 0),
            package_version=payload.get("package_version", ""),
            python=payload.get("python", ""),
            platform=payload.get("platform", ""),
            created_unix=payload.get("created_unix", 0.0),
            schema=payload.get("schema", MANIFEST_SCHEMA_VERSION),
            extra=dict(payload.get("extra", {})),
        )
