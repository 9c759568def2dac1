"""ServeClient backpressure retries: Retry-After honored, capped, bounded."""

import asyncio

import pytest

from repro.circuits import get
from repro.errors import OverloadedError
from repro.expr.pla import pla_from_spec, write_pla
from repro.resilience.retry import RetryPolicy
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer


def flaky_client(retries: int, failures: list[Exception],
                 **kwargs) -> tuple[ServeClient, list[float], list[dict]]:
    """A client whose ``_request`` raises the queued failures first."""
    client = ServeClient("http://test.invalid", retries=retries, **kwargs)
    sleeps: list[float] = []
    calls: list[dict] = []
    client._sleep = sleeps.append

    def fake_request(method, path, body=None):
        calls.append({"method": method, "path": path})
        if failures:
            raise failures.pop(0)
        return {"state": "done"}

    client._request = fake_request
    return client, sleeps, calls


def test_default_client_does_not_retry():
    client, sleeps, calls = flaky_client(0, [OverloadedError("queue_full", 2)])
    with pytest.raises(OverloadedError):
        client._request_with_backoff("POST", "/synthesize", {})
    assert sleeps == []
    assert len(calls) == 1


def test_retries_absorb_backpressure_then_succeed():
    client, sleeps, calls = flaky_client(3, [
        OverloadedError("queue_full", 2.0),
        OverloadedError("queue_full", 1.0),
    ])
    doc = client._request_with_backoff("POST", "/synthesize", {})
    assert doc == {"state": "done"}
    assert len(calls) == 3
    assert client.backoff_retries == 2
    assert len(sleeps) == 2
    # The server's Retry-After is the floor of each sleep.
    assert sleeps[0] >= 2.0
    assert sleeps[1] >= 1.0


def test_raises_after_retry_budget_spent():
    client, sleeps, calls = flaky_client(
        2, [OverloadedError("queue_full", 1.0)] * 5)
    with pytest.raises(OverloadedError):
        client._request_with_backoff("POST", "/synthesize", {})
    assert len(calls) == 3  # initial attempt + 2 retries
    assert client.backoff_retries == 2


def test_retry_after_is_capped_by_policy_max_delay():
    policy = RetryPolicy(max_retries=1, base_delay=0.1, max_delay=0.5)
    client, sleeps, _ = flaky_client(
        1, [OverloadedError("queue_full", 60.0)], retry_policy=policy)
    client._request_with_backoff("POST", "/synthesize", {})
    # A drowning server may advertise a minute; the client will not
    # stall that long per attempt.
    assert sleeps == [0.5]


def test_policy_backoff_is_floor_when_retry_after_is_tiny():
    policy = RetryPolicy(max_retries=4, base_delay=1.0, max_delay=30.0)
    client, sleeps, _ = flaky_client(
        4, [OverloadedError("queue_full", 0.001)] * 4, retry_policy=policy)
    client._request_with_backoff("POST", "/synthesize", {})
    # Exponential shape survives a near-zero Retry-After, jitter in
    # [0.5, 1.0) of the capped 2^(n-1) step.
    assert len(sleeps) == 4
    assert all(s >= 0.5 for s in sleeps)
    assert sleeps == [min(30.0, max(0.001, policy.delay(n)))
                      for n in range(1, 5)]


def test_non_backpressure_errors_are_not_retried():
    client, sleeps, calls = flaky_client(3, [ValueError("bad pla")])
    with pytest.raises(ValueError):
        client._request_with_backoff("POST", "/synthesize", {})
    assert sleeps == []
    assert len(calls) == 1


def test_http_round_trip_retries_through_full_queue():
    """End to end: a 503-shedding daemon, then room, one client."""
    pla = write_pla(pla_from_spec(get("rd53")))

    async def driver():
        server = ReproServer(port=0, max_queue_depth=1)
        await server.start()
        # A held in-flight entry fills the queue until the client's
        # backoff sleep frees it.
        server.queue._inflight["held/key"] = object()
        loop = asyncio.get_running_loop()

        def scenario():
            client = ServeClient(f"http://127.0.0.1:{server.port}",
                                 retries=2,
                                 retry_policy=RetryPolicy(
                                     max_retries=2, base_delay=0.01,
                                     max_delay=0.05))
            # First attempt is shed with a real HTTP 503; the queue has
            # room again before the retry fires.
            client._sleep = lambda _: server.queue._inflight.pop("held/key")
            doc = client.synthesize(pla, name="rd53", wait=True)
            assert doc["state"] == "done"
            assert client.backoff_retries == 1
            return True

        try:
            return await loop.run_in_executor(None, scenario)
        finally:
            await server.stop()

    assert asyncio.run(driver())
