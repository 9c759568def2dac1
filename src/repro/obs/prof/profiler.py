"""A stdlib sampling profiler that attributes samples to ambient spans.

The profiler answers the question the span tracer cannot: *which
functions* inside a slow pass are burning the time.  A background
daemon thread wakes every ``interval`` seconds (later when the
profiled thread holds the GIL), grabs the profiled thread's current
Python stack via :func:`sys._current_frames`, snapshots the ambient
:class:`~repro.obs.spans.SpanTracer`'s open-span path, and aggregates
the ``(span path, call stack)`` pair into a :class:`Profile`, weighted
by the time measured since the previous capture.  No signals, no C
extension, no dependency — it works anywhere a thread can run,
including inside the crash-isolated pool workers of
:mod:`repro.flow.parallel` (each worker profiles itself and ships its
:class:`Profile` home in the ``OutputRun``, exactly like its span
tree).

Sampling is *statistical*: reading another thread's frame objects and
the tracer's span stack while they mutate is benign — a rare torn
sample lands in a neighbouring bucket, which a profile's aggregate view
does not care about.  What matters is that the profiled thread itself
pays almost nothing: it runs completely unmodified, the only cost being
the GIL time the sampler thread steals (sub-millisecond per second at
the default 200 Hz).

With profiling off — the default — nothing here runs at all: the flow
checks one boolean option, so the <5% disabled-observability budget of
``bench_perf_smoke.py`` is untouched.

Exports (collapsed stacks and speedscope JSON flamegraphs) live in
:mod:`repro.obs.prof.export`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_INTERVAL",
    "Profile",
    "SamplingProfiler",
]

#: Default sampling period in seconds (200 Hz).
DEFAULT_INTERVAL = 0.005

#: Deepest stack recorded per sample; frames beyond this are dropped
#: from the *outermost* end (the leaf always survives).
MAX_STACK_DEPTH = 128


@dataclass
class Profile:
    """Aggregated stack samples of one profiled run.

    ``samples`` maps ``(span_path, stack)`` — both tuples of strings,
    outermost first — to the number of times that exact pair was
    observed, and ``weights`` maps the same key to the wall-time in
    seconds those samples stand for.  The sampler weighs each sample by
    the time measured since its previous capture, so the weights sum to
    about ``duration`` however late the sampler thread wakes; a sample
    added without a measured weight stands for one ``interval``.
    """

    interval: float = DEFAULT_INTERVAL
    pid: int = field(default_factory=os.getpid)
    duration: float = 0.0
    samples: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = field(
        default_factory=dict
    )
    weights: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = field(
        default_factory=dict
    )

    def add(self, span_path: tuple[str, ...], stack: tuple[str, ...],
            count: int = 1, weight: float | None = None) -> None:
        """Count ``count`` samples of one pair; ``weight`` is the seconds
        they stand for (default ``count * interval``)."""
        key = (span_path, stack)
        self.samples[key] = self.samples.get(key, 0) + count
        if weight is None:
            weight = count * self.interval
        self.weights[key] = self.weights.get(key, 0.0) + weight

    @property
    def sample_count(self) -> int:
        return sum(self.samples.values())

    @property
    def total_weight(self) -> float:
        """Seconds the samples stand for."""
        return sum(self.weights.values())

    def merge(self, other: "Profile",
              span_prefix: tuple[str, ...] = ()) -> None:
        """Fold ``other`` into this profile.

        ``span_prefix`` re-parents the foreign samples under this run's
        span tree — the profile analogue of
        :meth:`~repro.obs.spans.SpanTracer.adopt` for spans shipped back
        from pool workers.
        """
        for key, count in other.samples.items():
            span_path, stack = key
            self.add(span_prefix + span_path, stack, count,
                     other.weights[key])
        self.duration = max(self.duration, other.duration)

    def seconds_by_span(self) -> dict[str, float]:
        """Estimated seconds attributed to each innermost open span."""
        totals: dict[str, float] = {}
        for (span_path, _stack), weight in self.weights.items():
            leaf = span_path[-1] if span_path else "(no span)"
            totals[leaf] = totals.get(leaf, 0.0) + weight
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def hotspots(self, top: int = 10) -> list[tuple[str, float]]:
        """Top leaf *functions* by estimated seconds."""
        totals: dict[str, float] = {}
        for (_spans, stack), weight in self.weights.items():
            leaf = stack[-1] if stack else "(unknown)"
            totals[leaf] = totals.get(leaf, 0.0) + weight
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        return ranked[:top]

    # -- (de)serialization -------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "interval": self.interval,
            "pid": self.pid,
            "duration": self.duration,
            "sample_count": self.sample_count,
            "samples": [
                {"spans": list(spans), "stack": list(stack), "count": count,
                 "weight": self.weights[(spans, stack)]}
                for (spans, stack), count in sorted(self.samples.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Profile":
        profile = cls(
            interval=payload.get("interval", DEFAULT_INTERVAL),
            pid=payload.get("pid", 0),
            duration=payload.get("duration", 0.0),
        )
        for sample in payload.get("samples", []):
            profile.add(
                tuple(sample.get("spans", [])),
                tuple(sample.get("stack", [])),
                sample.get("count", 1),
                sample.get("weight"),
            )
        return profile


def _format_frame(frame) -> str:
    code = frame.f_code
    return (
        f"{code.co_name} "
        f"({os.path.basename(code.co_filename)}:{frame.f_lineno})"
    )


class SamplingProfiler:
    """Samples one thread's stack from a background daemon thread.

    Use as a context manager around the work to profile::

        profiler = SamplingProfiler()
        with profiler:
            synthesize_fprm(spec, options)
        profile = profiler.profile

    The profiler targets the thread that calls :meth:`start` and
    snapshots the span tracer ambient on that thread *at start time* —
    so two threads each running their own profiled synthesis collect
    two disjoint profiles, the same isolation contract the per-thread
    tracer install slot gives spans.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 tracer=None):
        self.interval = max(1e-4, float(interval))
        self.profile = Profile(interval=self.interval)
        self._explicit_tracer = tracer
        self._tracer = None
        self._target_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        from repro.obs.spans import current_tracer

        self._target_ident = threading.get_ident()
        self._tracer = (
            self._explicit_tracer
            if self._explicit_tracer is not None else current_tracer()
        )
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.profile.duration = time.perf_counter() - self._started_at
        return self.profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- the sampler thread ------------------------------------------------

    def _span_path(self) -> tuple[str, ...]:
        tracer = self._tracer
        if tracer is None:
            return ()
        try:
            # Reading the span stack while the profiled thread pushes or
            # pops is deliberately lock-free; a sample caught mid-update
            # just attributes to the parent span, which is still true.
            return tuple(node.name for node in tracer._stack)
        except Exception:  # noqa: BLE001 - torn read during mutation
            return ()

    def _capture_stack(self) -> tuple[str, ...] | None:
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:
            return None
        frames: list[str] = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            frames.append(_format_frame(frame))
            frame = frame.f_back
            depth += 1
        frames.reverse()
        return tuple(frames)

    def _sample_loop(self) -> None:
        # Under the GIL the sampler wakes far less often than every
        # ``interval``; each sample stands for the time since the last
        # capture, so the weights still add up to the wall time.
        previous = self._started_at
        while not self._stop.wait(self.interval):
            try:
                stack = self._capture_stack()
            except Exception:  # noqa: BLE001 - never kill the sampler
                continue
            if stack is None:
                continue
            now = time.perf_counter()
            self.profile.add(self._span_path(), stack,
                             weight=now - previous)
            previous = now
