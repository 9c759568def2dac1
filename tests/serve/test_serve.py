"""repro-serve: dedup, endpoints, graceful drain.

The server runs in-process on an ephemeral port; the blocking
:class:`~repro.serve.client.ServeClient` talks to it from executor
threads so concurrent submissions genuinely race.
"""

import asyncio
import threading

import pytest

from repro.circuits import get
from repro.engine import EngineConfig
from repro.expr.pla import pla_from_spec, write_pla
from repro.flow.cache import get_result_cache
from repro.serve.client import ServeClient
from repro.serve.jobs import options_from_json
from repro.serve.server import ReproServer


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    get_result_cache().detach_disk()
    yield
    get_result_cache().clear()
    get_result_cache().detach_disk()


def pla_text(name: str) -> str:
    return write_pla(pla_from_spec(get(name)))


def run_with_server(fn, config: EngineConfig | None = None, workers: int = 2):
    """Start a server, run blocking ``fn(client, server)`` in a thread."""
    async def driver():
        server = ReproServer(config, port=0, workers=workers)
        await server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, fn, client, server)
        finally:
            await server.stop()
    return asyncio.run(driver())


# -- dedup (the satellite's acceptance test) ---------------------------------


def test_concurrent_identical_jobs_deduplicate():
    """Two identical jobs submitted concurrently: one engine invocation,
    bit-identical results for both callers."""
    pla = pla_text("rd53")

    def scenario(client, server):
        results = [None, None]

        def submit(i):
            results[i] = client.synthesize(pla, name="rd53", wait=True)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results, server.queue.synth_calls

    (a, b), synth_calls = run_with_server(scenario)
    assert synth_calls == 1
    assert a["id"] == b["id"]
    assert a["state"] == b["state"] == "done"
    assert {a["deduplicated"], b["deduplicated"]} == {True, False}
    assert a["result"]["blif"] == b["result"]["blif"]
    assert a["submissions"] == 2


def test_different_options_do_not_deduplicate():
    pla = pla_text("rd53")

    def scenario(client, server):
        first = client.synthesize(pla, name="rd53", wait=True)
        second = client.synthesize(
            pla, name="rd53", wait=True,
            options={"redundancy_removal": False},
        )
        return first, second, server.queue.synth_calls

    first, second, synth_calls = run_with_server(scenario)
    assert synth_calls == 2
    assert first["id"] != second["id"]
    assert first["key"] != second["key"]


# -- endpoints ----------------------------------------------------------------


def test_async_submit_then_poll():
    pla = pla_text("z4ml")

    def scenario(client, server):
        sub = client.synthesize(pla, name="z4ml", wait=False)
        assert sub["state"] in ("queued", "running")
        done = client.wait_job(sub["id"])
        listing = client.jobs()
        health = client.health()
        return done, listing, health

    done, listing, health = run_with_server(scenario)
    assert done["state"] == "done"
    assert done["result"]["two_input_gates"] > 0
    assert done["result"]["verified"] is True
    assert done["manifest"]["circuit"] == "z4ml"
    assert len(listing["jobs"]) == 1
    assert health["status"] == "ok"
    assert health["jobs"]["done"] == 1


def test_priority_field_is_ignored_like_any_unknown_field():
    # Bodies written for releases with priority classes still work;
    # the job runs in plain FIFO order and nothing echoes a priority.
    pla = pla_text("rd53")

    def scenario(client, server):
        accepted = client._request("POST", "/synthesize", {
            "pla": pla, "name": "rd53", "priority": "urgent",
            "client": "batch"})
        return accepted, client.wait_job(accepted["id"])

    accepted, done = run_with_server(scenario)
    assert "priority" not in accepted
    assert done["state"] == "done"
    assert done["client"] == "batch"
    assert "priority" not in done


def test_queue_runs_jobs_in_submission_order():
    from repro.engine import SynthesisEngine
    from repro.serve.jobs import JobQueue

    async def scenario():
        engine = SynthesisEngine()
        queue = JobQueue(engine, workers=1)
        jobs = [queue.submit(get(name), client=client)[0]
                for name, client in (("rd53", "batch"), ("z4ml", "ui"),
                                     ("radd", "batch"))]
        queue.start()  # only now can anything run
        await asyncio.wait_for(
            asyncio.gather(*(job.done.wait() for job in jobs)), 60)
        await queue.drain()
        engine.close()
        return jobs

    jobs = asyncio.run(scenario())
    assert [job.state.value for job in jobs] == ["done"] * 3
    starts = [job.started_unix for job in jobs]
    assert starts == sorted(starts)


def test_metrics_endpoint_exposes_serve_counters():
    pla = pla_text("rd53")

    def scenario(client, server):
        client.synthesize(pla, name="rd53", wait=True)
        return client.metrics()

    metrics = run_with_server(scenario)
    assert "serve_jobs_submitted" in metrics
    assert "serve_jobs_completed" in metrics
    assert "engine_requests" in metrics


def test_bad_requests_are_400s():
    import urllib.error

    def scenario(client, server):
        codes = {}
        for label, body in (
            ("not-json", "{nope"),
            ("no-pla", {"name": "x"}),
            ("bad-pla", {"pla": ".i 2\n.o 1\nxx 1\n.e"}),
            ("bad-option", {"pla": pla_text("rd53"),
                            "options": {"mystery": 1}}),
        ):
            try:
                if isinstance(body, str):
                    import urllib.request
                    req = urllib.request.Request(
                        client.base_url + "/synthesize",
                        data=body.encode(), method="POST",
                    )
                    urllib.request.urlopen(req, timeout=10)
                else:
                    client._request("POST", "/synthesize", body)
                codes[label] = 200
            except urllib.error.HTTPError as exc:
                codes[label] = exc.code
        try:
            client.job("job-999")
            codes["missing-job"] = 200
        except urllib.error.HTTPError as exc:
            codes["missing-job"] = exc.code
        return codes

    codes = run_with_server(scenario)
    assert codes == {"not-json": 400, "no-pla": 400, "bad-pla": 400,
                     "bad-option": 400, "missing-job": 404}


def test_failed_job_reports_error():
    # budget_seconds must be float-convertible; a string that isn't is a 400,
    # but a job can still fail at run time — force one with an absurd option
    # combination is hard, so exercise the options validator directly.
    with pytest.raises(ValueError, match="unknown option"):
        options_from_json({"trace": True})
    with pytest.raises(ValueError, match="bad value"):
        options_from_json({"retries": "many"})
    assert options_from_json({"verify": False, "jobs": 2}) \
        == {"verify": False, "jobs": 2}


# -- disk cache integration ---------------------------------------------------


def test_serve_results_land_in_disk_cache(tmp_path):
    pla = pla_text("rd53")
    config = EngineConfig(cache_dir=str(tmp_path / "cache"))

    def scenario(client, server):
        first = client.synthesize(pla, name="rd53", wait=True)
        return first

    first = run_with_server(scenario, config=config)
    assert first["state"] == "done"

    # A fresh server (fresh memory tier) on the same directory is warm.
    get_result_cache().clear()
    config2 = EngineConfig(cache_dir=str(tmp_path / "cache"))

    def scenario2(client, server):
        before = get_result_cache().stats.disk_hits
        second = client.synthesize(pla, name="rd53", wait=True)
        return second, get_result_cache().stats.disk_hits - before

    second, disk_hits = run_with_server(scenario2, config=config2)
    assert disk_hits == get("rd53").num_outputs
    assert second["result"]["blif"] == first["result"]["blif"]


# -- graceful drain -----------------------------------------------------------


def test_drain_finishes_queued_jobs():
    pla_a = pla_text("rd53")
    pla_b = pla_text("z4ml")

    async def driver():
        server = ReproServer(workers=1)
        await server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        loop = asyncio.get_running_loop()
        # Two jobs on one worker: the second is still queued when we stop.
        sub_a = await loop.run_in_executor(
            None, lambda: client.synthesize(pla_a, name="rd53", wait=False))
        sub_b = await loop.run_in_executor(
            None, lambda: client.synthesize(pla_b, name="z4ml", wait=False))
        await server.stop()
        return (server.queue.get(sub_a["id"]).state.value,
                server.queue.get(sub_b["id"]).state.value)

    states = asyncio.run(driver())
    assert states == ("done", "done")
