"""Per-request serve telemetry: trace endpoint, correlation IDs, latency.

The tentpole contract under test: every serve request owns one
correlation id that shows up on the daemon's log lines *and* on the
pool workers' lines (shipped in the task payload, not fork-inherited),
``GET /jobs/<id>/trace`` returns the request's span tree, and two
concurrent jobs produce disjoint, correctly re-parented trees.
"""

import json
import threading
import urllib.error

import pytest

from repro.circuits import get
from repro.flow.cache import get_result_cache
from repro.serve.client import ServeClient  # noqa: F401 (re-exported helper)

from .test_serve import pla_text, run_with_server, submit_twice_in_flight


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    get_result_cache().detach_disk()
    yield
    get_result_cache().clear()
    get_result_cache().detach_disk()


@pytest.fixture
def log_file(tmp_path, monkeypatch):
    """Point the structured-log env sink at a temp JSONL file.

    The env var (not ``configure``) is deliberate: forked pool workers
    inherit it, which is exactly the cross-process path under test.
    The module caches the env lookup per pid, so reset the cache on
    both sides of the test.
    """
    import repro.obs.logs as logs

    path = tmp_path / "serve-log.jsonl"
    monkeypatch.setenv(logs.LOG_FILE_ENV, str(path))
    logs._env_checked_pid = -1
    yield path
    logs._env_checked_pid = -1


def read_events(path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line.strip()]


# -- GET /jobs/<id>/trace -----------------------------------------------------


def test_trace_endpoint_returns_span_tree():
    pla = pla_text("z4ml")

    def scenario(client, server):
        done = client.synthesize(pla, name="z4ml", wait=True)
        return done, client.trace(done["id"])

    done, doc = run_with_server(scenario)
    assert done["state"] == "done"
    assert doc["id"] == done["id"]
    assert doc["correlation_id"] == done["correlation_id"]
    assert doc["key"] == done["key"]
    trace = doc["trace"]
    assert trace["circuit"] == "z4ml"
    assert trace["records"], "span tree should carry pass records"
    assert trace["spans"]["name"] == "synthesize:z4ml"
    assert trace["spans"]["children"], "root span should have children"


def test_trace_endpoint_404s():
    def scenario(client, server):
        codes = {}
        for path in ("/jobs/job-999/trace", "/jobs/job-999/nonsense"):
            try:
                client._request("GET", path)
                codes[path] = 200
            except urllib.error.HTTPError as exc:
                codes[path] = exc.code
        return codes

    codes = run_with_server(scenario)
    assert set(codes.values()) == {404}


# -- correlation IDs across daemon and pool workers ---------------------------


def test_correlation_id_spans_daemon_and_pool_workers(log_file):
    """One request, jobs=2: daemon lines and pool-worker lines (different
    pids) all carry the same correlation id and request key."""
    pla = pla_text("rd53")  # 3 outputs -> the pool genuinely engages

    def scenario(client, server):
        done = client.synthesize(pla, name="rd53", wait=True,
                                 options={"jobs": 2})
        return done

    done = run_with_server(scenario)
    assert done["state"] == "done"
    cid = done["correlation_id"]
    assert cid

    events = read_events(log_file)
    by_event: dict[str, list[dict]] = {}
    for event in events:
        by_event.setdefault(event["event"], []).append(event)

    assert by_event["serve.job.submitted"][0]["correlation_id"] == cid
    assert by_event["serve.job.start"][0]["correlation_id"] == cid
    assert by_event["serve.job.finished"][0]["correlation_id"] == cid

    worker_done = by_event.get("worker.output.done", [])
    assert len(worker_done) == get("rd53").num_outputs
    daemon_pid = by_event["serve.job.submitted"][0]["pid"]
    assert all(event["correlation_id"] == cid for event in worker_done)
    assert all(event["request_key"] == done["key"] for event in worker_done)
    assert any(event["pid"] != daemon_pid for event in worker_done), \
        "expected at least one line from a forked pool worker"


def test_dedup_join_logs_same_correlation_id(log_file):
    pla = pla_text("rd53")

    def scenario(client, server):
        return submit_twice_in_flight(client, server, pla, "rd53")

    a, b = run_with_server(scenario)
    assert a["correlation_id"] == b["correlation_id"]
    events = read_events(log_file)
    joined = [e for e in events if e["event"] == "serve.job.joined"]
    assert len(joined) == 1
    assert joined[0]["correlation_id"] == a["correlation_id"]


# -- concurrent jobs stay disjoint (tracer/profiler thread-safety) ------------


def test_concurrent_jobs_have_disjoint_traces():
    """Two simultaneous jobs on two serve workers: each ends with its own
    correlation id and a span tree containing only its own circuit."""
    plas = {"rd53": pla_text("rd53"), "z4ml": pla_text("z4ml")}

    def scenario(client, server):
        results = {}

        def submit(name):
            results[name] = client.synthesize(plas[name], name=name,
                                              wait=True)

        threads = [threading.Thread(target=submit, args=(name,))
                   for name in plas]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        traces = {name: client.trace(results[name]["id"]) for name in plas}
        return results, traces

    results, traces = run_with_server(scenario, workers=2)
    assert results["rd53"]["correlation_id"] != \
        results["z4ml"]["correlation_id"]
    for name in ("rd53", "z4ml"):
        tree = traces[name]["trace"]
        assert tree["circuit"] == name
        assert tree["spans"]["name"] == f"synthesize:{name}"
        # Every span in the tree belongs to this run — no cross-
        # contamination from the sibling job's tracer.
        other = "z4ml" if name == "rd53" else "rd53"
        flat = json.dumps(tree["spans"])
        assert other not in flat


# -- latency histogram --------------------------------------------------------


def test_latency_histogram_in_prometheus_metrics():
    pla = pla_text("rd53")

    def scenario(client, server):
        client.synthesize(pla, name="rd53", wait=True)
        return client.metrics()

    metrics = run_with_server(scenario)
    assert "# TYPE serve_request_seconds histogram" in metrics
    assert "serve_request_seconds_bucket" in metrics
    # The registry is process-wide, so only require >= 1 observation.
    count_lines = [line for line in metrics.splitlines()
                   if line.startswith("serve_request_seconds_count ")]
    assert count_lines and int(count_lines[0].split()[1]) >= 1
    assert "# TYPE serve_queue_wait_seconds histogram" in metrics
