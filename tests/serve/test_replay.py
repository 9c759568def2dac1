"""Spool replay through the real server: boot-time re-enqueue."""

import asyncio
import json
import os
import time

import pytest

from repro.circuits import get
from repro.expr.pla import pla_from_spec, write_pla
from repro.flow.cache import get_result_cache
from repro.obs.metrics import get_metrics_registry
from repro.serve.client import ServeClient
from repro.serve.server import STATE_DIR_ENV, ReproServer, resolve_state_dir
from repro.serve.spool import RequestSpool


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    get_result_cache().detach_disk()
    yield
    get_result_cache().clear()
    get_result_cache().detach_disk()


def pla_text(name: str) -> str:
    return write_pla(pla_from_spec(get(name)))


def boot_and_wait(state_dir: str, expect_done: int):
    """Start a server on ``state_dir``, wait for the backlog, stop."""
    async def driver():
        server = ReproServer(port=0, state_dir=state_dir)
        await server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        loop = asyncio.get_running_loop()

        def wait_done():
            end = time.monotonic() + 60
            jobs = []
            while time.monotonic() < end:
                jobs = client.jobs()["jobs"]
                done = [job for job in jobs if job["state"] == "done"]
                if len(done) >= expect_done:
                    return [client.job(job["id"]) for job in done]
                time.sleep(0.05)
            raise TimeoutError(f"backlog never drained: {jobs}")

        try:
            jobs = await loop.run_in_executor(None, wait_done)
            return server.replayed, jobs
        finally:
            await server.stop()
    return asyncio.run(driver())


def test_boot_replays_unfinished_jobs(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    spool = RequestSpool(state_dir)
    # The crash shape: one job accepted, one accepted + started, one
    # finished — only the first two are unfinished business, and the
    # finished one has no entry left.
    spool.add(request_key="a", circuit="rd53", pla=pla_text("rd53"),
              options={}, client="ci")
    spool.add(request_key="b", circuit="z4ml", pla=pla_text("z4ml"),
              options={}, client="east")

    replayed, jobs = boot_and_wait(state_dir, expect_done=2)
    assert replayed == 2
    by_circuit = {job["circuit"]: job for job in jobs}
    assert set(by_circuit) == {"rd53", "z4ml"}
    for job in jobs:
        assert job["replayed"] is True
        assert job["state"] == "done"
        assert job["result"]["blif"]
    assert by_circuit["z4ml"]["client"] == "east"
    # The finished jobs' entries were removed, so a second boot has
    # nothing left to replay.
    replayed_again, _ = boot_and_wait(state_dir, expect_done=0)
    assert replayed_again == 0


def test_spooled_retries_option_replays(tmp_path):
    """A schema-2 entry spooled by a daemon whose pool still had retry
    rounds carries ``retries`` in its options: it replays, it is not
    moved to failed/."""
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    spool = RequestSpool(state_dir)
    spool.add(request_key="old", circuit="rd53", pla=pla_text("rd53"),
              options={"retries": 3, "verify": True}, client="ci")
    with open(spool.path_for("old"), encoding="utf-8") as handle:
        assert json.load(handle)["schema"] == 2

    replayed, [job] = boot_and_wait(state_dir, expect_done=1)
    assert replayed == 1
    assert job["replayed"] is True
    assert job["state"] == "done"
    assert spool.failed() == []
    assert spool.pending_keys() == []


def test_poisoned_journal_entry_does_not_block_boot(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    spool = RequestSpool(state_dir)
    spool.add(request_key="good", circuit="rd53", pla=pla_text("rd53"),
              options={}, client="ci")
    # A well-formed entry whose PLA is garbage: the re-enqueue must
    # fail for this entry only.
    spool.add(request_key="poison", circuit="bad", pla="not a pla at all",
              options={}, client="ci")

    before = get_metrics_registry().counter(
        "serve.spool.replay_errors", "test probe").value
    replayed, jobs = boot_and_wait(state_dir, expect_done=1)
    assert replayed == 1
    assert jobs[0]["circuit"] == "rd53"
    after = get_metrics_registry().counter(
        "serve.spool.replay_errors", "test probe").value
    assert after == before + 1

    # The poisoned entry was moved aside: a second boot neither replays
    # nor re-counts it, and it waits in failed/ for a post-mortem.
    replayed_again, _ = boot_and_wait(state_dir, expect_done=0)
    assert replayed_again == 0
    assert get_metrics_registry().counter(
        "serve.spool.replay_errors", "test probe").value == after
    assert spool.pending_keys() == []
    [failed] = spool.failed()
    assert failed["entry"]["request_key"] == "poison"
    assert "not a pla" in failed["entry"]["pla"]
    assert failed["error"]


def test_resolve_state_dir_precedence(monkeypatch):
    monkeypatch.delenv(STATE_DIR_ENV, raising=False)
    assert resolve_state_dir(None) is None
    assert resolve_state_dir("/explicit") == "/explicit"
    monkeypatch.setenv(STATE_DIR_ENV, "/from-env")
    assert resolve_state_dir(None) == "/from-env"
    assert resolve_state_dir("/explicit") == "/explicit"
    monkeypatch.setenv(STATE_DIR_ENV, "")
    assert resolve_state_dir(None) is None


def test_healthz_reports_durability(tmp_path):
    async def driver():
        server = ReproServer(port=0, state_dir=str(tmp_path / "state"))
        await server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        loop = asyncio.get_running_loop()
        try:
            health = await loop.run_in_executor(None, client.health)
            assert health["durable"] is True
            assert health["replayed"] == 0
        finally:
            await server.stop()

        ephemeral = ReproServer(port=0, state_dir=None)
        # Explicit None and no env var: not durable.
        os.environ.pop(STATE_DIR_ENV, None)
        await ephemeral.start()
        client = ServeClient(f"http://127.0.0.1:{ephemeral.port}")
        try:
            health = await loop.run_in_executor(None, client.health)
            assert health["durable"] is False
        finally:
            await ephemeral.stop()
    asyncio.run(driver())
