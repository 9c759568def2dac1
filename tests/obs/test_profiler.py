"""The sampling profiler: attribution, merging, exports, isolation."""

import json
import threading
import time

import pytest

from repro.obs.prof import (
    Profile,
    SamplingProfiler,
    profile_to_collapsed,
    profile_to_speedscope,
    write_profile,
)
from repro.obs.schema import validate
from repro.obs.spans import SpanTracer, install, span, uninstall


def burn(seconds: float) -> int:
    """A named frame the sampler can catch."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


# -- sampling ----------------------------------------------------------------


def test_profiler_samples_the_starting_thread():
    profiler = SamplingProfiler(interval=0.001)
    with profiler:
        burn(0.15)
    profile = profiler.profile
    assert profile.sample_count > 10
    assert profile.duration >= 0.15
    leaves = {stack[-1] for (_spans, stack) in profile.samples}
    assert any("burn" in leaf for leaf in leaves)


@pytest.mark.parametrize("interval", [0.001, 0.005])
def test_sample_weight_matches_wall_time(interval):
    """The sampler wakes late under the GIL; the weights still add up to
    the profiled wall time."""
    profiler = SamplingProfiler(interval=interval)
    with profiler:
        burn(0.25)
    profile = profiler.profile
    weight = sum(profile.seconds_by_span().values())
    assert 0.8 <= weight / profile.duration <= 1.2, (
        weight, profile.duration, profile.sample_count)
    payload = json.loads(json.dumps(profile.as_dict()))
    assert validate(payload, "profile") == []
    assert Profile.from_dict(payload).weights == profile.weights


def test_profiler_attributes_samples_to_ambient_spans():
    tracer = SpanTracer(root_name="run")
    previous = install(tracer)
    try:
        with SamplingProfiler(interval=0.001, tracer=tracer) as profiler:
            with span("hot-pass", category="pass"):
                burn(0.12)
    finally:
        uninstall(previous)
    span_paths = {spans for (spans, _stack) in profiler.profile.samples}
    assert any("hot-pass" in path for path in span_paths)
    by_span = profiler.profile.seconds_by_span()
    assert by_span.get("hot-pass", 0.0) > 0.0


def test_two_threads_profile_disjointly():
    """Each thread's profiler only sees its own stack — the isolation
    contract concurrent serve workers rely on."""
    profiles = {}

    def worker(name, marker):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            marker(0.12)
        profiles[name] = profiler.profile

    def marker_a(seconds):
        return burn(seconds)

    def marker_b(seconds):
        return burn(seconds)

    threads = [
        threading.Thread(target=worker, args=("a", marker_a)),
        threading.Thread(target=worker, args=("b", marker_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    def frames(profile):
        return {frame for (_s, stack) in profile.samples for frame in stack}

    assert profiles["a"].sample_count > 0
    assert profiles["b"].sample_count > 0
    assert any("marker_a" in f for f in frames(profiles["a"]))
    assert not any("marker_b" in f for f in frames(profiles["a"]))
    assert any("marker_b" in f for f in frames(profiles["b"]))
    assert not any("marker_a" in f for f in frames(profiles["b"]))


# -- Profile aggregation ------------------------------------------------------


def test_profile_merge_reparents_under_prefix():
    parent = Profile(interval=0.01)
    parent.add(("synthesize:x",), ("main", "run"), count=2)
    worker = Profile(interval=0.01)
    worker.add(("output:f0",), ("work", "inner"), count=3)
    parent.merge(worker, span_prefix=("synthesize:x", "parallel-map"))
    assert parent.sample_count == 5
    key = (("synthesize:x", "parallel-map", "output:f0"), ("work", "inner"))
    assert parent.samples[key] == 3


def test_profile_roundtrips_through_dict_and_validates():
    profile = Profile(interval=0.002)
    profile.add(("root", "pass"), ("f (m.py:1)", "g (m.py:2)"), count=4)
    profile.duration = 1.5
    payload = json.loads(json.dumps(profile.as_dict()))
    assert validate(payload, "profile") == []
    back = Profile.from_dict(payload)
    assert back.samples == profile.samples
    assert back.interval == profile.interval
    assert back.duration == profile.duration


def test_hotspots_and_seconds_by_span():
    profile = Profile(interval=0.01)
    profile.add(("root",), ("a", "hot"), count=9)
    profile.add(("root", "sub"), ("a", "cool"), count=1)
    assert profile.hotspots(1) == [("hot", 0.09)]
    by_span = profile.seconds_by_span()
    assert abs(by_span["root"] - 0.09) < 1e-9
    assert abs(by_span["sub"] - 0.01) < 1e-9


# -- exports -----------------------------------------------------------------


def test_collapsed_export_format():
    profile = Profile(interval=0.01)
    profile.add(("run", "pass;x"), ("f (a.py:1)", "g (b.py:2)"), count=7)
    text = profile_to_collapsed(profile)
    assert text == "run;pass,x;f (a.py:1);g (b.py:2) 7\n"


def test_speedscope_export_format():
    profile = Profile(interval=0.01)
    profile.add(("run",), ("f (a.py:1)",), count=3)
    profile.add(("run",), ("f (a.py:1)", "g (b.py:2)"), count=1)
    doc = profile_to_speedscope(profile, name="unit")
    assert doc["$schema"].startswith("https://www.speedscope.app")
    frames = [frame["name"] for frame in doc["shared"]["frames"]]
    assert frames == ["run", "f (a.py:1)", "g (b.py:2)"]
    prof = doc["profiles"][0]
    assert prof["type"] == "sampled"
    assert prof["unit"] == "seconds"
    assert len(prof["samples"]) == len(prof["weights"]) == 2
    assert abs(sum(prof["weights"]) - 0.04) < 1e-9
    assert prof["endValue"] == sum(prof["weights"])


def test_write_profile_picks_format_from_extension(tmp_path):
    profile = Profile(interval=0.01)
    profile.add((), ("f (a.py:1)",), count=1)
    folded = tmp_path / "p.collapsed"
    scope = tmp_path / "p.speedscope.json"
    assert write_profile(profile, str(folded)) == "collapsed"
    assert write_profile(profile, str(scope), name="x") == "speedscope"
    assert folded.read_text().strip() == "f (a.py:1) 1"
    assert json.loads(scope.read_text())["name"] == "x"
