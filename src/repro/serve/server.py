"""The repro-serve HTTP daemon: stdlib asyncio, no framework.

HTTP/1.1 is hand-rolled on ``asyncio.start_server`` — request line,
headers, ``Content-Length`` body, one request per connection — because
the container bakes in only the standard library.  Endpoints:

==========================  =============================================
``POST /synthesize``        submit a PLA (JSON body: ``pla``, optional
                            ``name``/``options``/``wait``/``client``;
                            other keys are ignored); 200 with the
                            finished job when ``wait`` is true, else 202
                            with the job id and request key.  Identical
                            in-flight requests join the same job
                            (``deduplicated`` in the response); a
                            submission past the queue's high-water mark
                            is shed with 503 and a ``Retry-After``
                            header.
``GET /jobs``               summaries of every job this process has seen
``GET /jobs/<id>``          full job document, run manifest included
``GET /jobs/<id>/trace``    the request's span tree (full FlowTrace
                            document; 404 until the job is done)
``GET /metrics``            the process metrics registry in Prometheus
                            text exposition format
``GET /healthz``            liveness, job-state counts, durability info
                            and the health monitor's degraded reasons
==========================  =============================================

With a state directory configured the daemon is *durable*: every
submission is spooled before its 202 goes out, and on boot the spool
is replayed — jobs a previous (possibly SIGKILL'd) daemon never
finished are re-enqueued and complete bit-identically via the shared
result cache.  Per-key locks under the same directory let several
daemons on one machine share one cache and state directory without
duplicating in-flight synthesis.

SIGTERM/SIGINT trigger a graceful drain: the listener closes (new
connections are refused by the OS), queued and running jobs finish,
and the process exits 0.  A second signal cancels the drain and exits
immediately.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

from repro.engine import EngineConfig, SynthesisEngine
from repro.errors import OverloadedError
from repro.network.to_expr import spec_from_pla_text
from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.serve.health import HealthMonitor
from repro.serve.jobs import DEFAULT_CLIENT, JobQueue, options_from_json
from repro.serve.spool import RequestSpool

__all__ = ["ReproServer", "resolve_state_dir"]

_MAX_BODY = 8 * 1024 * 1024  # a PLA bigger than 8 MiB is not a request

#: Environment default for the serve state directory (spool + key
#: locks); like ``REPRO_CACHE_DIR``, set once per machine and every
#: daemon on it shares one durable queue.
STATE_DIR_ENV = "REPRO_SERVE_STATE_DIR"


def resolve_state_dir(explicit: str | None = None) -> str | None:
    """Effective serve state directory: explicit wins, else the env var."""
    if explicit is not None:
        return explicit
    return os.environ.get(STATE_DIR_ENV) or None


class _BadRequest(Exception):
    """Client error with a message that goes into the 400 body."""


class ReproServer:
    """One engine, one job queue, one asyncio listener."""

    def __init__(self, config: EngineConfig | None = None,
                 host: str = "127.0.0.1", port: int = 8348,
                 workers: int = 1,
                 state_dir: str | None = None,
                 max_queue_depth: int | None = None,
                 min_free_mb: int | None = None):
        self.engine = SynthesisEngine(config)
        self.state_dir = resolve_state_dir(state_dir)
        spool = None
        if self.state_dir is not None:
            os.makedirs(self.state_dir, exist_ok=True)
            spool = RequestSpool(self.state_dir)
        self.queue = JobQueue(self.engine, workers=workers, spool=spool,
                              max_depth=max_queue_depth)
        self.health = HealthMonitor(
            spool=spool,
            state_dir=self.state_dir,
            min_free_bytes=(min_free_mb * 1024 * 1024
                            if min_free_mb else None),
            breaker=(self.engine.disk_tier.breaker
                     if self.engine.disk_tier is not None else None),
        )
        self.host = host
        self.port = port
        self.replayed = 0
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.queue.start()
        self._replay_spool()
        self.health.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one" — publish what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]

    def _replay_spool(self) -> None:
        """Re-enqueue the unfinished backlog a dead daemon left behind."""
        spool = self.queue.spool
        if spool is None:
            return
        registry = get_metrics_registry()
        report = spool.replay()
        if report.skipped_schema:
            registry.counter(
                "serve.journal.skipped_schema",
                "spool entries with an unknown (newer) schema version",
            ).inc(report.skipped_schema)
        errors = registry.counter(
            "serve.journal.replay_errors",
            "spool entries that failed to re-enqueue (moved to failed/)",
        )
        errors.inc(report.failed)
        for entry in report.pending:
            key = entry["request_key"]
            try:
                spec = spec_from_pla_text(entry["pla"], name=entry["circuit"])
                job, _ = self.queue.submit(
                    spec, options_from_json(entry["options"]),
                    client=entry["client"], replayed=True,
                )
            except Exception as exc:  # noqa: BLE001 — a poisoned spool
                # entry must not take the whole boot down with it.
                error = f"{type(exc).__name__}: {exc}"
                spool.fail(key, error)
                errors.inc()
                log_event("serve.journal.replay_error",
                          request_key=key, error=error)
                continue
            if job.key != key:
                # The recomputed key differs (e.g. the entry came from a
                # daemon with different default options).  Re-spool the
                # work under the key its completion will remove, or
                # every future boot replays it again.
                spool.add(request_key=job.key, circuit=entry["circuit"],
                          pla=entry["pla"], options=entry["options"],
                          client=entry["client"])
                spool.remove(key)
            self.replayed += 1
            registry.counter(
                "serve.journal.replayed",
                "unfinished spool entries re-enqueued on boot",
            ).inc()
            log_event("serve.journal.replayed", request_key=key,
                      circuit=entry["circuit"])

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT, then drain and return."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._shutdown.set)
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Stop accepting, drain the queue, release the engine."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.health.stop()
        await self.queue.drain()
        self.engine.close()

    # -- http plumbing -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        headers: dict[str, str] = {}
        try:
            response = await self._handle_request(reader)
            status, body = response[0], response[1]
            if len(response) > 2:
                headers = response[2]
        except _BadRequest as exc:
            status, body = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — never kill the listener
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            if isinstance(body, str):
                payload = body.encode("utf-8")
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                payload = json.dumps(body).encode("utf-8")
                ctype = "application/json"
            reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                      404: "Not Found", 500: "Internal Server Error",
                      503: "Service Unavailable"}
            extra = "".join(
                f"{name}: {value}\r\n" for name, value in headers.items()
            )
            writer.write(
                f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extra}"
                f"Connection: close\r\n\r\n".encode("ascii")
            )
            writer.write(payload)
            await writer.drain()
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("ascii",
                                                        "replace").strip()
        if not request_line:
            raise _BadRequest("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, path, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("ascii",
                                                    "replace").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise _BadRequest("bad Content-Length") from exc
        if length > _MAX_BODY:
            raise _BadRequest(f"body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return await self._dispatch(method, path, body)

    # -- endpoints ---------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes):
        if method == "POST" and path == "/synthesize":
            return await self._post_synthesize(body)
        if method == "GET" and path == "/jobs":
            return 200, {
                "jobs": [job.summary() for job in self.queue.jobs.values()]
            }
        if method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, sub = rest.partition("/")
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": "no such job"}
            if sub == "trace":
                if job.trace is None:
                    return 404, {"error": f"no trace for {job_id} "
                                          f"(state: {job.state.value})"}
                return 200, {
                    "id": job.id,
                    "correlation_id": job.correlation_id,
                    "key": job.key,
                    "trace": job.trace,
                }
            if sub:
                return 404, {"error": f"no route for {method} {path}"}
            return 200, job.as_dict()
        if method == "GET" and path == "/metrics":
            return 200, get_metrics_registry().to_prometheus_text()
        if method == "GET" and path == "/healthz":
            reasons = self.health.reasons
            return 200, {
                "status": "degraded" if reasons else "ok",
                "degraded": bool(reasons),
                "reasons": reasons,
                "jobs": self.queue.counts(),
                "queue_depth": self.queue.depth(),
                "durable": self.queue.spool is not None,
                "replayed": self.replayed,
            }
        return 404, {"error": f"no route for {method} {path}"}

    async def _post_synthesize(self, body: bytes):
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not JSON: {exc}") from exc
        if not isinstance(doc, dict) or "pla" not in doc:
            raise _BadRequest('body must be a JSON object with a "pla" key')
        try:
            spec = spec_from_pla_text(
                doc["pla"], name=str(doc.get("name", "request"))
            )
        except Exception as exc:  # parser raises its own taxonomy
            raise _BadRequest(f"bad PLA: {exc}") from exc
        options_doc = doc.get("options") or {}
        try:
            overrides = options_from_json(options_doc)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from exc
        client = str(doc.get("client") or DEFAULT_CLIENT)

        try:
            job, deduplicated = self.queue.submit(
                spec, overrides,
                client=client,
                pla=str(doc["pla"]),
                options_doc=options_doc,
            )
        except OverloadedError as exc:
            # Shed, not queued: the backlog means accepting this job
            # would make every other job slower.
            retry_after = max(1, int(exc.retry_after))
            return (
                503,
                {"error": str(exc), "reason": exc.reason,
                 "retry_after": retry_after},
                {"Retry-After": str(retry_after)},
            )
        if doc.get("wait"):
            await job.done.wait()
            response = job.as_dict()
            response["deduplicated"] = deduplicated
            return 200, response
        return 202, {
            "id": job.id,
            "key": job.key,
            "state": job.state.value,
            "deduplicated": deduplicated,
        }
