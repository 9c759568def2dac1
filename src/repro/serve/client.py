"""Small blocking client for repro-serve (urllib, stdlib only).

Used by the test suite and the CI smoke job; handy from scripts too::

    from repro.serve.client import ServeClient
    client = ServeClient("http://127.0.0.1:8348")
    job = client.synthesize(pla_text, wait=True)
    print(job["result"]["two_input_gates"])

Backpressure (503 from overload shedding) surfaces as the same typed
error the queue raises in-process, :class:`~repro.errors.
OverloadedError`, carrying the server's ``Retry-After``.  Pass
``retries=N`` to let the client absorb that backpressure itself: it
sleeps for the server's ``Retry-After``, clamped to
[:data:`MIN_BACKOFF_SECONDS`, :data:`MAX_BACKOFF_SECONDS`], and
resubmits, raising only once the budget is spent.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.errors import OverloadedError

__all__ = ["MAX_BACKOFF_SECONDS", "MIN_BACKOFF_SECONDS", "ServeClient"]

#: Bounds of one backoff sleep: a near-zero ``Retry-After`` must not
#: busy-spin the daemon, and a drowning daemon may advertise a pause
#: that would stall a test harness for a minute per attempt.
MIN_BACKOFF_SECONDS = 0.1
MAX_BACKOFF_SECONDS = 5.0


class ServeClient:
    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        #: Backpressure retries actually performed (test/telemetry hook).
        self.backoff_retries = 0
        self._sleep = time.sleep  # injectable for tests

    def _request(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = resp.read()
                ctype = resp.headers.get("Content-Type", "")
                if ctype.startswith("application/json"):
                    return json.loads(payload.decode("utf-8"))
                return payload.decode("utf-8")
        except urllib.error.HTTPError as exc:
            if exc.code == 503:
                # Surface the daemon's backpressure as the same typed
                # error the queue raises in-process.
                retry_after = float(exc.headers.get("Retry-After") or 1.0)
                doc = {}
                try:
                    doc = json.loads(exc.read().decode("utf-8"))
                    retry_after = float(doc.get("retry_after", retry_after))
                except (ValueError, UnicodeDecodeError):
                    pass
                raise OverloadedError(
                    str(doc.get("reason", "overloaded")), retry_after
                ) from exc
            raise

    def _request_with_backoff(self, method: str, path: str,
                              body: dict | None = None):
        """``_request`` plus up to ``retries`` resubmissions on 503
        backpressure, each after the server's clamped ``Retry-After``."""
        attempt = 0
        while True:
            try:
                return self._request(method, path, body)
            except OverloadedError as exc:
                if attempt >= self.retries:
                    raise
                attempt += 1
                self.backoff_retries += 1
                self._sleep(min(MAX_BACKOFF_SECONDS,
                                max(MIN_BACKOFF_SECONDS, exc.retry_after)))

    # -- endpoints ---------------------------------------------------------

    def synthesize(self, pla: str, name: str = "request",
                   options: dict | None = None, wait: bool = True,
                   client: str | None = None) -> dict:
        body: dict = {
            "pla": pla, "name": name, "options": options or {}, "wait": wait,
        }
        if client is not None:
            body["client"] = client
        return self._request_with_backoff("POST", "/synthesize", body)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def trace(self, job_id: str) -> dict:
        """The request's span tree (404 until the job is done)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def jobs(self) -> dict:
        return self._request("GET", "/jobs")

    def metrics(self) -> str:
        return self._request("GET", "/metrics")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    # -- conveniences ------------------------------------------------------

    def wait_job(self, job_id: str, timeout: float = 60.0,
                 poll: float = 0.1) -> dict:
        """Poll ``/jobs/<id>`` until the job leaves queued/running."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["state"] not in ("queued", "running"):
                return doc
            if time.monotonic() > deadline:
                raise TimeoutError(f"{job_id} still {doc['state']}")
            time.sleep(poll)

    def wait_ready(self, timeout: float = 30.0, poll: float = 0.1) -> dict:
        """Poll ``/healthz`` until the daemon answers (startup race)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (urllib.error.URLError, ConnectionError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(poll)
