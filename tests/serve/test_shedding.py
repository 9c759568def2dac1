"""Overload shedding, and the health monitor's report-only degraded mode."""

import asyncio
import json
import types
import urllib.error
import urllib.request

import pytest

from repro.circuits import get
from repro.engine import EngineConfig, SynthesisEngine
from repro.errors import OverloadedError
from repro.expr.pla import pla_from_spec, write_pla
from repro.flow.disk_cache import DiskCacheTier
from repro.obs.metrics import get_metrics_registry
from repro.serve.client import ServeClient
from repro.serve.health import HealthMonitor
from repro.serve.jobs import JobQueue
from repro.serve.server import ReproServer
from repro.serve.spool import RequestSpool


@pytest.fixture()
def engine():
    engine = SynthesisEngine()
    yield engine
    engine.close()


def _usage(free_bytes: int):
    """A ``shutil.disk_usage`` stand-in returning a fixed headroom."""
    return lambda path: types.SimpleNamespace(
        total=free_bytes * 10, used=free_bytes * 9, free=free_bytes)


# -- queue-level shedding -----------------------------------------------------


def test_max_depth_must_be_positive(engine):
    with pytest.raises(ValueError, match="max_depth"):
        JobQueue(engine, max_depth=0)


def test_submission_past_high_water_is_shed(engine):
    queue = JobQueue(engine, max_depth=2)
    queue.submit(get("rd53"))
    queue.submit(get("z4ml"))
    registry = get_metrics_registry()
    before = registry.counter("serve.shed.total", "").value
    with pytest.raises(OverloadedError) as info:
        queue.submit(get("radd"))
    assert info.value.reason == "queue_full"
    assert 1.0 <= info.value.retry_after <= 60.0
    assert registry.counter("serve.shed.total", "").value == before + 1
    assert queue.depth() == 2  # the shed request joined nothing


def test_dedup_join_is_never_shed(engine):
    queue = JobQueue(engine, max_depth=1)
    job, deduplicated = queue.submit(get("rd53"))
    assert not deduplicated
    # The queue is at its high-water mark, but joining an in-flight job
    # costs no new work — it must still be admitted.
    joined, deduplicated = queue.submit(get("rd53"))
    assert deduplicated and joined is job


def test_replayed_submission_is_never_shed(engine):
    queue = JobQueue(engine, max_depth=1)
    queue.submit(get("rd53"))
    # Replay re-enqueues work that already got its 202 from a previous
    # daemon; shedding it would break that promise.
    job, deduplicated = queue.submit(get("z4ml"), replayed=True)
    assert not deduplicated
    assert job.replayed


def test_degraded_gauge_tracks_mode(tmp_path):
    spool = RequestSpool(str(tmp_path / "state"))
    monitor = HealthMonitor(spool=spool)
    gauge = get_metrics_registry().gauge("serve.degraded", "")
    spool.write_errors += 1
    monitor.check()
    assert gauge.value == 1
    monitor.check()
    assert gauge.value == 0


def test_retry_after_scales_with_backlog(engine):
    queue = JobQueue(engine)
    assert queue._retry_after() == 1.0
    for n in range(10):
        queue._inflight[f"fake/{n}"] = object()
    assert queue._retry_after() == 5.0
    for n in range(300):
        queue._inflight[f"more/{n}"] = object()
    assert queue._retry_after() == 60.0


# -- the health monitor -------------------------------------------------------


def test_low_disk_flips_degraded_and_recovers(tmp_path):
    monitor = HealthMonitor(state_dir=str(tmp_path),
                            min_free_bytes=100 * 1024 * 1024,
                            disk_usage=_usage(7 * 1024 * 1024))
    assert monitor.check() == ["low-disk:7mb-free"]
    assert monitor.reasons == ["low-disk:7mb-free"]
    monitor.disk_usage = _usage(500 * 1024 * 1024)
    assert monitor.check() == []
    assert monitor.reasons == []


def test_vanished_state_dir_is_its_own_reason(tmp_path):
    def explode(path):
        raise OSError(2, "No such file or directory", path)

    monitor = HealthMonitor(state_dir=str(tmp_path / "gone"),
                            min_free_bytes=1, disk_usage=explode)
    assert monitor.check() == ["state-dir-missing"]


def test_no_floor_means_no_disk_check(tmp_path):
    monitor = HealthMonitor(state_dir=str(tmp_path),
                            min_free_bytes=None,
                            disk_usage=_usage(0))
    assert monitor.check() == []


def test_fresh_journal_write_errors_degrade_then_clear(tmp_path):
    spool = RequestSpool(str(tmp_path / "state"))
    monitor = HealthMonitor(spool=spool)
    assert monitor.check() == []
    spool.write_errors += 1  # a spool write failed since the last sample
    assert monitor.check() == ["spool-write-errors"]
    # No *new* failures in the next interval: lift optimistically.
    assert monitor.check() == []
    spool.write_errors += 1
    assert monitor.check() == ["spool-write-errors"]


def test_fresh_cache_write_errors_degrade_then_clear(tmp_path):
    tier = DiskCacheTier(tmp_path / "cache")
    spool = RequestSpool(str(tmp_path / "state"))
    monitor = HealthMonitor(spool=spool, disk_cache=tier)
    assert monitor.check() == []
    tier.write_errors += 1  # a cache store failed since the last sample
    assert monitor.check() == ["cache-write-errors"]
    assert monitor.check() == []
    # Each source is sampled on its own.
    tier.write_errors += 2
    spool.write_errors += 1
    assert monitor.check() == ["spool-write-errors", "cache-write-errors"]
    assert monitor.check() == []


def test_daemon_reports_its_disk_tier_write_errors(tmp_path):
    server = ReproServer(EngineConfig(cache_dir=str(tmp_path / "cache")),
                         port=0)
    try:
        assert server.health.check() == []
        server.engine.disk_tier.write_errors += 1
        assert server.health.check() == ["cache-write-errors"]
    finally:
        server.engine.close()


def test_reason_counter_counts_transitions_not_samples(tmp_path):
    monitor = HealthMonitor(state_dir=str(tmp_path),
                            min_free_bytes=100 * 1024 * 1024,
                            disk_usage=_usage(1024 * 1024))
    counter = get_metrics_registry().counter(
        "serve.degraded.reasons", "", labels={"reason": "low-disk"})
    before = counter.value
    monitor.check()
    monitor.check()
    monitor.check()
    # One *transition* into low-disk, three samples.
    assert counter.value == before + 1


def test_monitor_runs_as_background_task(tmp_path):
    async def scenario():
        monitor = HealthMonitor(state_dir=str(tmp_path),
                                min_free_bytes=100 * 1024 * 1024,
                                disk_usage=_usage(1024),
                                interval_seconds=0.01)
        monitor.start()
        await asyncio.sleep(0.05)
        await monitor.stop()
        return monitor.checks, monitor.reasons

    checks, reasons = asyncio.run(scenario())
    assert checks >= 2
    assert reasons == ["low-disk:0mb-free"]


# -- over HTTP ----------------------------------------------------------------


def test_http_shed_is_503_with_retry_after():
    pla = write_pla(pla_from_spec(get("rd53")))

    async def driver():
        server = ReproServer(port=0, max_queue_depth=1)
        await server.start()
        # Fill the queue deterministically: one in-flight entry that no
        # worker will ever finish.
        server.queue._inflight["held/key"] = object()
        loop = asyncio.get_running_loop()

        def scenario():
            body = json.dumps({"pla": pla})
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/synthesize",
                data=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                urllib.request.urlopen(request, timeout=10)
                raise AssertionError("expected HTTP 503")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                assert int(exc.headers["Retry-After"]) >= 1
                doc = json.loads(exc.read().decode("utf-8"))
                assert doc["reason"] == "queue_full"
                assert doc["retry_after"] >= 1
            return True

        try:
            return await loop.run_in_executor(None, scenario)
        finally:
            server.queue._inflight.pop("held/key")
            await server.stop()

    assert asyncio.run(driver())


def test_healthz_reports_degraded_reasons_and_still_serves(tmp_path):
    pla = write_pla(pla_from_spec(get("rd53")))

    async def driver():
        # A free-space floor no disk meets: the monitor's first sample
        # reports low disk.
        server = ReproServer(port=0, state_dir=str(tmp_path / "state"),
                             min_free_mb=1 << 40)
        await server.start()
        loop = asyncio.get_running_loop()
        client = ServeClient(f"http://127.0.0.1:{server.port}")

        def scenario():
            health = client.health()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            [reason] = health["reasons"]
            assert reason.startswith("low-disk:")
            doc = client.synthesize(pla, name="rd53", wait=True)
            assert doc["state"] == "done"
            return True

        try:
            return await loop.run_in_executor(None, scenario)
        finally:
            await server.stop()

    assert asyncio.run(driver())


def test_healthz_reports_ok_when_healthy():
    async def driver():
        server = ReproServer(port=0)
        await server.start()
        loop = asyncio.get_running_loop()

        def scenario():
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/healthz",
                    timeout=10) as resp:
                health = json.loads(resp.read().decode("utf-8"))
            assert health["status"] == "ok"
            assert health["degraded"] is False
            assert health["reasons"] == []
            assert health["queue_depth"] == 0
            return True

        try:
            return await loop.run_in_executor(None, scenario)
        finally:
            await server.stop()

    assert asyncio.run(driver())
