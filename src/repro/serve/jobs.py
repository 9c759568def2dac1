"""Job queue: dedup, one FIFO queue, overload shedding, spool and key locks.

Every submission is keyed by :meth:`SynthesisEngine.request_key` — the
``spec digest / options fingerprint`` identity also used by the result
cache and the run manifest.  Submitting a request whose key matches a
queued or running job does **not** enqueue a second synthesis: the
caller is attached to the existing job and gets the same result
(``Job.submissions`` counts how many callers share it).  Keys equal ⇒
results equal, so deduplication can never serve a wrong answer.

New jobs wait in one FIFO :class:`asyncio.Queue`; ``client`` is an
attribution label for the logs, never a scheduling input.  Around it:

* **spool** — when a :class:`~repro.serve.spool.RequestSpool` is
  attached, each new job's entry is written before the job is
  observable and removed once it is done (moved to ``failed/`` if it
  raised), so a SIGKILL'd daemon replays its unfinished backlog on the
  next boot.
* **key locks** — with a spool attached, a worker also takes the key's
  lock (:meth:`~repro.serve.spool.RequestSpool.try_lock`) before
  synthesizing; a peer daemon on the same state directory wanting the
  same key polls until the lock is free and then (thanks to the shared
  disk cache) answers from cache instead of duplicating the work.  The
  kernel frees a dead holder's lock, so nothing ever waits on a crash.
* **overload shedding** — with ``max_depth`` set, a submission that
  would push the queue past its high-water mark is refused with
  :class:`~repro.errors.OverloadedError` (the HTTP layer maps it to
  ``503`` + ``Retry-After``) instead of growing the backlog without
  bound.  Dedup joins and spool replays are never shed: a join costs
  no new work, and a replayed job was already admitted once.

All queue state is mutated on the event-loop thread only; the actual
synthesis runs in a thread-pool executor (and, for multi-output specs,
fans out into the crash-isolated process pool via ``options.jobs``),
so the loop stays responsive while jobs run.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import time
from dataclasses import dataclass, field

from repro.core.options import (
    ControllabilityEngine,
    FactorMethod,
    SynthesisOptions,
)
from repro.engine import SynthesisEngine
from repro.errors import OverloadedError
from repro.fprm.polarity import PolarityStrategy
from repro.network.blif import write_blif
from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.obs.runctx import RunContext, install_run_context, new_correlation_id
from repro.power import estimate_power
from repro.serve.spool import KeyLock, RequestSpool
from repro.spec import CircuitSpec
from repro.timing import network_delay

__all__ = [
    "DEFAULT_CLIENT",
    "Job",
    "JobQueue",
    "JobState",
    "options_from_json",
]

DEFAULT_CLIENT = "default"

#: How often a worker retries a key lock a peer daemon holds.
_LOCK_POLL_SECONDS = 0.25

#: JSON-settable synthesis knobs: name -> converter.  A whitelist, not
#: ``getattr`` on the dataclass — the service must not expose knobs that
#: change the result silently (``trace``) or that only make sense
#: in-process (``cache`` is the daemon's own business).
_OPTION_FIELDS = {
    "verify": bool,
    "jobs": int,
    "budget_seconds": float,
    "timeout_per_output": float,
    "retries": int,
    "redundancy_removal": bool,
    "literal_cleanup": bool,
    "cube_limit": int,
    "factor_method": FactorMethod,
    "polarity_strategy": PolarityStrategy,
    "controllability": ControllabilityEngine,
}


def options_from_json(doc: dict) -> dict:
    """Convert a request's ``options`` object into engine overrides.

    Raises :class:`ValueError` naming the offending field for anything
    unknown or unconvertible, so the server can answer 400 instead of
    crashing a worker.
    """
    overrides: dict = {}
    for name, raw in doc.items():
        conv = _OPTION_FIELDS.get(name)
        if conv is None:
            raise ValueError(f"unknown option {name!r}")
        try:
            overrides[name] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for option {name!r}: {exc}") from exc
    return overrides


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One deduplicated unit of synthesis work."""

    id: str
    key: str
    circuit: str
    spec: CircuitSpec
    options: SynthesisOptions
    state: JobState = JobState.QUEUED
    client: str = DEFAULT_CLIENT
    #: Re-enqueued from the spool after a crash (skips shedding/spool).
    replayed: bool = False
    submissions: int = 1
    #: One id shared by every log line this request produces — in the
    #: daemon, on the executor thread and inside pool workers.
    correlation_id: str = ""
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    result: dict | None = None
    manifest: dict | None = None
    #: The request's span tree (``GET /jobs/<id>/trace``), the full
    #: FlowTrace document of the completed run.
    trace: dict | None = None
    error: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def summary(self) -> dict:
        """The short form (``GET /jobs`` listing)."""
        return {
            "id": self.id,
            "state": self.state.value,
            "circuit": self.circuit,
            "key": self.key,
            "client": self.client,
            "replayed": self.replayed,
            "correlation_id": self.correlation_id,
            "submissions": self.submissions,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
        }

    def as_dict(self) -> dict:
        """The full form (``GET /jobs/<id>``), manifest included."""
        doc = self.summary()
        doc["result"] = self.result
        doc["manifest"] = self.manifest
        doc["error"] = self.error
        return doc


class JobQueue:
    """Async job queue in front of one shared engine."""

    def __init__(self, engine: SynthesisEngine, workers: int = 1,
                 spool: RequestSpool | None = None,
                 max_depth: int | None = None):
        if max_depth is not None and max_depth <= 0:
            raise ValueError("max_depth must be positive (or None)")
        self.engine = engine
        self.workers = max(1, workers)
        self.spool = spool
        self.max_depth = max_depth
        self.jobs: dict[str, Job] = {}
        self.synth_calls = 0  # engine invocations (dedup leaves this flat)
        self._inflight: dict[str, Job] = {}
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._ids = itertools.count(1)
        self._registry = get_metrics_registry()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for n in range(self.workers):
            self._tasks.append(
                asyncio.get_running_loop().create_task(
                    self._worker(), name=f"repro-serve-worker-{n}"
                )
            )

    async def drain(self) -> None:
        """Wait for every queued/running job, then stop the workers."""
        await self._queue.join()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def _retry_after(self) -> float:
        """Back clients off proportionally to the backlog, 1–60 s."""
        return min(60.0, max(1.0, len(self._inflight) * 0.5))

    # -- submission --------------------------------------------------------

    def submit(self, spec: CircuitSpec, overrides: dict | None = None, *,
               client: str = DEFAULT_CLIENT,
               pla: str | None = None,
               options_doc: dict | None = None,
               replayed: bool = False) -> tuple[Job, bool]:
        """Enqueue (or join) a request; returns ``(job, deduplicated)``.

        Must be called from the event-loop thread (the HTTP handlers
        are); all dedup bookkeeping relies on that single-threadedness.
        Raises :class:`~repro.errors.OverloadedError` when the
        submission is shed (queue past its high-water mark).
        ``pla``/``options_doc`` carry the raw request payload into the
        spool so a crashed daemon can reconstruct the job on replay;
        replayed re-submissions skip the shed check (the work was
        already accepted — dropping it now would break the 202 promise)
        and the spool (their entry already exists).
        """
        overrides = overrides or {}
        key = self.engine.request_key(spec, **overrides)
        self._registry.counter(
            "serve.jobs.submitted", "job submissions received"
        ).inc()
        existing = self._inflight.get(key)
        if existing is not None:
            existing.submissions += 1
            self._registry.counter(
                "serve.dedup.hits", "submissions joined to in-flight jobs"
            ).inc()
            log_event("serve.job.joined", job=existing.id,
                      correlation_id=existing.correlation_id,
                      submissions=existing.submissions)
            return existing, True
        if not replayed and self.max_depth is not None \
                and len(self._inflight) >= self.max_depth:
            retry_after = self._retry_after()
            self._registry.counter(
                "serve.shed.total", "submissions shed by overload",
            ).inc()
            log_event("serve.job.shed", request_key=key,
                      reason="queue_full", client=client,
                      depth=len(self._inflight), retry_after=retry_after)
            raise OverloadedError("queue_full", retry_after)
        job = Job(
            id=f"job-{next(self._ids)}",
            key=key,
            circuit=spec.name,
            spec=spec,
            # Serve jobs always trace: the span tree is the request's
            # GET /jobs/<id>/trace document.  (``trace`` never changes
            # the synthesized result, so dedup keys stay valid.)
            options=self.engine.resolve(**overrides).replace(trace=True),
            client=client,
            replayed=replayed,
            correlation_id=new_correlation_id(),
        )
        if self.spool is not None and not replayed:
            # Spool before the job becomes observable: once a caller
            # holds a 202, the work survives any crash of this daemon.
            self.spool.add(
                request_key=key,
                circuit=spec.name,
                pla=pla if pla is not None else "",
                options=options_doc or {},
                client=client,
            )
        self.jobs[job.id] = job
        self._inflight[key] = job
        self._queue.put_nowait(job)
        log_event("serve.job.submitted", job=job.id,
                  correlation_id=job.correlation_id,
                  circuit=job.circuit, request_key=job.key,
                  client=client, replayed=replayed)
        self._registry.gauge(
            "serve.queue.depth", "jobs waiting or running"
        ).set(len(self._inflight))
        return job, False

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def depth(self) -> int:
        """Jobs currently waiting or running (the shed signal)."""
        return len(self._inflight)

    def counts(self) -> dict:
        states = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            states[job.state.value] += 1
        return states

    # -- execution ---------------------------------------------------------

    def _run_job(self, job: Job):
        """Synthesize on the executor thread, request context installed.

        The context must be installed on the thread that runs the
        engine (not the event loop): the flow reads the ambient context
        there and ships it to pool workers, which is what makes every
        log line of one request carry one correlation id.
        """
        previous = install_run_context(
            RunContext(job.correlation_id, job.key)
        )
        try:
            log_event("serve.job.start", job=job.id, circuit=job.circuit)
            return self.engine.synthesize(job.spec, job.options)
        finally:
            install_run_context(previous)

    async def _lock(self, job: Job) -> KeyLock:
        """Take the job's key lock, polling while a peer daemon holds it.

        The metric names predate the lock (it replaced lease files);
        dashboards and the gauntlet read them.
        """
        assert self.spool is not None
        lock = self.spool.try_lock(job.key)
        if lock is None:
            self._registry.counter(
                "serve.lease.waits",
                "jobs that waited for a peer daemon's key lock",
            ).inc()
            log_event("serve.lease.wait", job=job.id, request_key=job.key)
            while lock is None:
                await asyncio.sleep(_LOCK_POLL_SECONDS)
                lock = self.spool.try_lock(job.key)
        self._registry.counter(
            "serve.lease.acquired", "key locks taken before running"
        ).inc()
        return lock

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            lock = await self._lock(job) if self.spool is not None else None
            job.state = JobState.RUNNING
            job.started_unix = time.time()
            try:
                self.synth_calls += 1
                result = await loop.run_in_executor(
                    None, self._run_job, job
                )
                job.result = _result_doc(result)
                job.manifest = (
                    result.manifest.as_dict()
                    if result.manifest is not None else None
                )
                job.trace = (
                    result.trace.as_dict()
                    if result.trace is not None else None
                )
                job.state = JobState.DONE
                if self.spool is not None:
                    self.spool.remove(job.key)
                self._registry.counter(
                    "serve.jobs.completed", "jobs finished successfully"
                ).inc()
            except Exception as exc:  # noqa: BLE001 — job isolation
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JobState.FAILED
                if self.spool is not None:
                    self.spool.fail(job.key, job.error)
                self._registry.counter(
                    "serve.jobs.failed", "jobs that raised"
                ).inc()
            finally:
                if lock is not None:
                    self.spool.unlock(lock)
                job.finished_unix = time.time()
                latency = job.finished_unix - job.submitted_unix
                self._registry.histogram(
                    "serve.request_seconds",
                    "submit-to-finish latency per request",
                ).observe(latency)
                self._registry.histogram(
                    "serve.queue_wait_seconds",
                    "submit-to-start wait per request",
                ).observe(job.started_unix - job.submitted_unix)
                log_event(
                    "serve.job.finished", job=job.id,
                    correlation_id=job.correlation_id,
                    state=job.state.value, seconds=round(latency, 6),
                    error=job.error,
                )
                self._inflight.pop(job.key, None)
                self._registry.gauge(
                    "serve.queue.depth", "jobs waiting or running"
                ).set(len(self._inflight))
                job.done.set()
                self._queue.task_done()


def _result_doc(result) -> dict:
    """JSON summary of a :class:`SynthesisResult`, BLIF included.

    The BLIF text is the bit-identity witness: two responses for the
    same key must carry byte-equal BLIF.
    """
    network = result.network
    return {
        "two_input_gates": result.two_input_gates,
        "literals": result.literals,
        "depth": network_delay(network).delay,
        "power_uw": estimate_power(network).microwatts,
        "seconds": result.seconds,
        "verified": bool(result.verify) if result.verify is not None else None,
        "cached_outputs": result.cached_outputs,
        "blif": write_blif(network),
    }
