"""Flamegraph exports for :class:`~repro.obs.prof.profiler.Profile`.

Two formats, both plain text/JSON with no dependencies:

* **collapsed stacks** (:func:`profile_to_collapsed`) — the
  ``frame;frame;frame count`` lines Brendan Gregg's ``flamegraph.pl``
  and most modern viewers ingest; ``count`` is the stack's sample
  weight in whole ``interval`` units.  The enclosing span path is prepended
  to each stack, so the flamegraph's base layers are the flow passes
  (``synthesize:z4ml;output:f0;factor-cube;…``) and the function frames
  grow out of the pass that called them.
* **speedscope JSON** (:func:`profile_to_speedscope`) — the
  https://www.speedscope.app file format (``"type": "sampled"``), drag-
  and-droppable into the browser viewer, weights in seconds.
"""

from __future__ import annotations

import json

from repro.obs.prof.profiler import Profile

__all__ = ["profile_to_collapsed", "profile_to_speedscope", "write_profile"]


def _clean(frame: str) -> str:
    """Frame label safe for the collapsed format (';' is the separator)."""
    return frame.replace(";", ",").replace("\n", " ")


def _merged_stack(spans: tuple[str, ...] | list[str],
                  stack: tuple[str, ...] | list[str]) -> list[str]:
    """Span path first, then call frames: the flamegraph's layer order."""
    return [_clean(name) for name in (*spans, *stack)]


def profile_to_collapsed(profile: Profile) -> str:
    """Collapsed-stack lines (``a;b;c count``), sorted for stable diffs."""
    lines = []
    for (spans, stack), weight in profile.weights.items():
        count = max(1, round(weight / profile.interval))
        lines.append(f"{';'.join(_merged_stack(spans, stack))} {count}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def profile_to_speedscope(profile: Profile, name: str = "repro") -> dict:
    """The speedscope file-format document (one sampled profile)."""
    frame_index: dict[str, int] = {}
    frames: list[dict] = []

    def index_of(label: str) -> int:
        found = frame_index.get(label)
        if found is None:
            found = frame_index[label] = len(frames)
            frames.append({"name": label})
        return found

    samples: list[list[int]] = []
    weights: list[float] = []
    for (spans, stack), weight in sorted(profile.weights.items()):
        samples.append([index_of(f) for f in _merged_stack(spans, stack)])
        weights.append(weight)

    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro-prof",
        "name": name,
    }


def write_profile(profile: Profile, path: str, name: str = "repro") -> str:
    """Write ``profile`` to ``path``; the extension picks the format.

    ``*.collapsed``/``*.folded`` → collapsed stacks, anything else →
    speedscope JSON.  Returns the format written.
    """
    if path.endswith((".collapsed", ".folded")):
        text, kind = profile_to_collapsed(profile), "collapsed"
    else:
        text = json.dumps(profile_to_speedscope(profile, name=name),
                          indent=2) + "\n"
        kind = "speedscope"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return kind
