"""The serve workloads: ``serve_hit`` and ``serve_fresh``.

A real ``repro-serve`` daemon runs durable (``--state-dir``) with the
disk cache on, ``--workers 1 --jobs 1``, verify on.  The load is a
closed loop of :data:`CLIENTS` threads in this process, each sending its
next request (``wait=True``) as soon as the previous reply arrives.

Every response is checked against the PLA it answered, by the
benchmark's own evaluator; on ``serve_hit`` it must also be
byte-identical to that key's first (warm-up) response.
"""

from __future__ import annotations

import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from bench import check
from bench.inputs import fresh_plas
from bench.layers import layer_metrics
from bench.spans import SpanRecorder
from bench.stats import ROOT, Outcome, clean_env, metric, percentile

CLIENTS = 2
#: Daemon boots timed per run; ``setup_s`` is their median.
BOOTS = 5
#: Requests per pass over the input set (the serve key set's size).
PASS_SIZE = 16
#: Window requests per client whose job traces give serve_fresh's
#: per-layer numbers: a fixed, seed-determined set, so counts repeat.
TRACED_PER_CLIENT = 32

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")

#: Prometheus family → per-layer name, counted over the timed window.
_WINDOW_COUNTERS = {
    "serve_dedup_hits": "serve.dedup.hits",
    "serve_shed_total": "serve.shed.total",
    "cache_memory_hits": "flow.cache.memory.hits",
    "cache_disk_hits": "flow.cache.disk.hits",
    "cache_disk_misses": "flow.cache.disk.misses",
    "cache_disk_puts": "flow.cache.disk.puts",
}


class Daemon:
    """A ``repro-serve`` process on one run directory's cache and state."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.boots = 0

    def start(self) -> float:
        """Boot and return the seconds until ``/healthz`` answered."""
        from repro.serve.client import ServeClient

        self.boots += 1
        log_path = self.run_dir / f"daemon{self.boots}.log"
        argv = [sys.executable, "-m", "repro.serve.cli", "--port", "0",
                "--workers", "1", "--jobs", "1",
                "--state-dir", str(self.run_dir / "state"),
                "--cache-dir", str(self.run_dir / "cache")]
        began = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=clean_env(ROOT / "src"),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        while True:
            match = _LISTENING.search(log_path.read_text(errors="replace"))
            if match:
                break
            if self.proc.poll() is not None:
                raise RuntimeError("repro-serve exited before listening:\n"
                                   + log_path.read_text(errors="replace"))
            if time.perf_counter() - began > 60:
                raise TimeoutError("repro-serve did not start listening")
            time.sleep(0.002)
        self.client = ServeClient(f"http://127.0.0.1:{match.group(1)}")
        self.client.wait_ready(timeout=60, poll=0.002)
        return time.perf_counter() - began

    def stop(self) -> int:
        """SIGTERM, let it drain, wait; returns the exit code."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -signal.SIGKILL


@dataclass
class Sample:
    client: int
    index: int
    label: str
    start: float
    end: float
    sent_unix: float
    doc: dict | None
    error: str | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def closed_loop(url: str, streams: list, seconds: float):
    """Run the client threads until ``seconds`` pass.

    Returns the samples in completion order, the window's start, and
    the clients that ran out of inputs before the window closed.
    """
    from repro.serve.client import ServeClient

    per_client: list[list[Sample]] = [[] for _ in streams]
    exhausted: list[int] = []
    go = threading.Event()
    window = {"deadline": 0.0}

    def worker(c: int) -> None:
        client = ServeClient(url)
        go.wait()
        for index, (label, pla) in enumerate(streams[c]):
            if time.perf_counter() >= window["deadline"]:
                return
            sent_unix, start = time.time(), time.perf_counter()
            doc = error = None
            try:
                doc = client.synthesize(pla, name=label, wait=True,
                                        client=f"bench{c}")
            except Exception as exc:  # noqa: BLE001 — count, keep going
                error = f"{type(exc).__name__}: {exc}"
            per_client[c].append(Sample(c, index, label, start,
                                        time.perf_counter(), sent_unix,
                                        doc, error))
        exhausted.append(c)

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(len(streams))]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    window["deadline"] = start + seconds
    go.set()
    for thread in threads:
        thread.join()
    samples = sorted((s for group in per_client for s in group),
                     key=lambda s: s.end)
    return samples, start, exhausted


def scrape(client) -> dict[str, float]:
    """Unlabeled counters from ``/metrics``."""
    values = {}
    for line in client.metrics().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _accept(outcome: Outcome, label: str, doc: dict | None,
            error: str | None) -> bool:
    """Count a failed or non-``done`` response; True when it is done."""
    if error is not None:
        outcome.fail(f"{label}: {error}")
        return False
    if doc.get("state") != "done":
        outcome.fail(f"{label}: job {doc.get('state')}: {doc.get('error')}")
        return False
    return True


def _quality(outcome: Outcome, docs: list[dict]) -> None:
    """gates / literals / mapped_literals of the served key set."""
    from repro.mapping import map_network, mcnc_lite_library
    from repro.network.blif import parse_blif

    library = mcnc_lite_library()
    results = [doc["result"] for doc in docs]
    outcome.metrics["gates"] = metric(
        sum(r["two_input_gates"] for r in results), "count")
    outcome.metrics["literals"] = metric(
        sum(r["literals"] for r in results), "count")
    outcome.metrics["mapped_literals"] = metric(sum(
        map_network(parse_blif(r["blif"]), library).literal_count
        for r in results), "count")


def _window_metrics(outcome: Outcome, samples: list[Sample], start: float,
                    setups: list[float]) -> None:
    latencies = [s.ms for s in samples]
    walls, slowest = [], []
    previous = start
    for k in range(len(samples) // PASS_SIZE):
        batch = samples[k * PASS_SIZE:(k + 1) * PASS_SIZE]
        walls.append(batch[-1].end - previous)
        slowest.append(max(s.ms for s in batch) / 1000.0)
        previous = batch[-1].end
    m = outcome.metrics
    m["setup_s"] = metric(percentile(setups, 50), "s", setups)
    m["suite_s"] = metric(percentile(walls, 50), "s", walls)
    m["max_circuit_s"] = metric(percentile(slowest, 50), "s", slowest)
    m["req_per_s"] = metric(len(samples) / (samples[-1].end - start), "1/s")
    m["latency_p50_ms"] = metric(percentile(latencies, 50), "ms", latencies)
    m["latency_p95_ms"] = metric(percentile(latencies, 95), "ms", latencies)


def _stage_metrics(outcome: Outcome, samples: list[Sample],
                   recorder: SpanRecorder) -> None:
    """Latency split from the response's own stamps (serve extras)."""
    engine, queue, job, http = [], [], [], []
    for s in samples:
        if s.doc is None or s.doc.get("result") is None:
            continue
        seconds = s.doc["result"]["seconds"]
        submitted = s.doc["submitted_unix"]
        started = s.doc["started_unix"]
        finished = s.doc["finished_unix"]
        engine.append(seconds * 1000.0)
        queue.append((started - submitted) * 1000.0)
        job.append((finished - started - seconds) * 1000.0)
        http.append(s.ms - (finished - submitted) * 1000.0)
        # Daemon stamps are wall-clock; shift them onto this request's
        # perf_counter timeline.
        shift = s.start - s.sent_unix
        root = recorder.add(f"request:{s.label}", s.label, s.start, s.end)
        recorder.add("serve.queue_wait", s.label, submitted + shift,
                     started + shift, root)
        recorder.add("serve.job", s.label, started + shift, finished + shift,
                     root)
    outcome.layers["engine.synth_ms_p50"] = percentile(engine, 50)
    outcome.layers["serve.queue_wait_ms_p50"] = percentile(queue, 50)
    outcome.layers["serve.job_overhead_ms_p50"] = percentile(job, 50)
    outcome.layers["serve.http_ms_p50"] = percentile(http, 50)


def _trace_layers(outcome: Outcome, traces: list[dict]) -> None:
    """Flow and network layers from the daemon's own job traces."""
    records = [r for t in traces for r in t.get("records", [])]
    ofdd: dict[str, float] = {}
    for t in traces:
        for name, value in (t.get("metrics") or {}).items():
            ofdd[name] = ofdd.get(name, 0) + value
    outcome.layers.update(layer_metrics(
        records,
        wall=sum(t["seconds"] for t in traces),
        scale=PASS_SIZE / len(traces),
        ofdd=ofdd,
        degradations=sum(len(t["resilience"]["degradations"])
                         for t in traces),
        # Job traces do not carry the remover's no-engine skips.
        skipped_no_engine=0,
    ))


def _counter_layers(outcome: Outcome, before: dict, after: dict,
                    state_bytes: int, cache_bytes: int,
                    requests: int) -> None:
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    for family, name in _WINDOW_COUNTERS.items():
        outcome.layers[name] = delta(family)
    engine_requests = delta("engine_requests")
    outcome.layers["engine.requests.cached_share"] = (
        delta("engine_requests_cached") / engine_requests
        if engine_requests else 0.0)
    outcome.layers["serve.state.bytes_per_req"] = state_bytes / requests
    puts = delta("cache_disk_puts")
    outcome.layers["flow.disk_cache.bytes_per_put"] = (
        cache_bytes / puts if puts else 0.0)


def _hit_streams(labels: list[str], plas: dict[str, str], seed: int):
    """One endless seeded key sequence per client.

    Each round sends every key once, in a seeded order.  Service times
    of the keys differ fivefold; independent draws would let the key mix,
    and so the mean latency, vary from seed to seed.
    """
    def stream(c: int):
        rng = random.Random(f"serve_hit:{seed}:{c}")
        while True:
            order = list(labels)
            rng.shuffle(order)
            for label in order:
                yield label, plas[label]
    return [stream(c) for c in range(CLIENTS)]


def _stop(daemon: Daemon, outcome: Outcome) -> None:
    code = daemon.stop()
    if code != 0:
        outcome.fail(f"repro-serve exited {code} on SIGTERM")


def _request_keys(daemon: Daemon, keys: list[tuple[str, str]],
                  outcome: Outcome, first: dict, traces: list | None) -> None:
    """One request per key, in order; ``traces`` collects job traces."""
    for label, pla in keys:
        outcome.attempted += 1
        doc = daemon.client.synthesize(pla, name=label, wait=True)
        if _accept(outcome, label, doc, None):
            first[label] = doc
            if traces is not None:
                traces.append(daemon.client.trace(doc["id"])["trace"])


def run(workload: str, seed: int, seconds: float, keys: list[tuple[str, str]],
        run_dir: Path, outcome: Outcome, recorder: SpanRecorder,
        traced: bool) -> None:
    """One serve workload run; fills ``outcome``.

    ``keys`` is the serve key set as ``(label, PLA)``: warm-up inputs on
    ``serve_hit``, the post-window quality set on ``serve_fresh``.
    """
    refs = {label: check.PlaReference(pla, f"{seed}:{label}")
            for label, pla in keys}
    daemon = Daemon(run_dir)
    first: dict[str, dict] = {}
    traces: list[dict] = []
    try:
        if workload == "serve_hit":
            daemon.start()
            _request_keys(daemon, keys, outcome, first,
                          traces if traced else None)
            _stop(daemon, outcome)
            streams = _hit_streams([label for label, _ in keys], dict(keys),
                                   seed)
        else:
            # 200 requests per second of window is far above what one
            # worker serves; running dry is reported as a failure.
            pool = fresh_plas(seed, int(200 * seconds) + 64)
            streams = [pool[c::CLIENTS] for c in range(CLIENTS)]
            fresh = dict(pool)

        setups = []
        for boot in range(BOOTS):
            setups.append(daemon.start())
            if boot < BOOTS - 1:
                _stop(daemon, outcome)

        before = scrape(daemon.client)
        state0 = dir_bytes(run_dir / "state")
        cache0 = dir_bytes(run_dir / "cache")
        samples, start, exhausted = closed_loop(daemon.client.base_url,
                                                streams, seconds)
        after = scrape(daemon.client)
        state_bytes = dir_bytes(run_dir / "state") - state0
        cache_bytes = dir_bytes(run_dir / "cache") - cache0
        outcome.attempted += len(samples)
        for c in exhausted:
            outcome.fail(f"client {c} ran out of fresh inputs")

        fixed = []
        for s in samples:
            if not _accept(outcome, s.label, s.doc, s.error):
                continue
            blif = s.doc["result"]["blif"]
            if workload == "serve_hit":
                if s.label not in first \
                        or blif != first[s.label]["result"]["blif"]:
                    outcome.fail(f"{s.label}: BLIF differs from the key's "
                                 f"first response")
                continue
            problem = check.PlaReference(
                fresh[s.label], f"{seed}:{s.label}").check(blif)
            if problem:
                outcome.fail(f"{s.label}: {problem}")
            if s.index < TRACED_PER_CLIENT:
                fixed.append(s)

        if workload == "serve_fresh":
            if traced:
                fixed.sort(key=lambda s: (s.client, s.index))
                traces = [daemon.client.trace(s.doc["id"])["trace"]
                          for s in fixed]
            _request_keys(daemon, keys, outcome, first, None)
        _stop(daemon, outcome)
    finally:
        daemon.stop()

    for label, doc in first.items():
        problem = refs[label].check(doc["result"]["blif"])
        if problem:
            outcome.fail(f"{label}: {problem}")
    if len(first) == len(keys):
        _quality(outcome, [first[label] for label, _ in keys])
    _window_metrics(outcome, samples, start, setups)
    outcome.metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")
    if traced:
        _stage_metrics(outcome, samples, recorder)
        _trace_layers(outcome, traces)
        _counter_layers(outcome, before, after, state_bytes, cache_bytes,
                        len(samples))
