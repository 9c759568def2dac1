"""repro-serve: synthesis as a long-lived, durable service.

A stdlib-only asyncio daemon in front of the
:class:`~repro.engine.SynthesisEngine`: jobs wait in one FIFO async
queue, identical in-flight requests are deduplicated on their content
digest (N submissions, one synthesis, N responses), multi-output jobs
are batched into the crash-isolated process pool, and results land in
the shared disk-backed cache so a restarted daemon — or a plain
``repro-synth`` run pointed at the same ``--cache-dir`` — is warm from
the first request.

With a ``--state-dir`` the queue itself is durable: each accepted job
gets a pending-request file (:mod:`repro.serve.spool`) before its 202
goes out, removed once the job is done and replayed on the next boot
if the daemon died first, and per-key ``flock`` locks in the same
module let several daemons on one machine share one cache and state
directory without duplicating in-flight synthesis; the kernel frees a
crashed holder's locks at once.  A bounded queue sheds overload with
503 + ``Retry-After`` (``--max-queue-depth``), and a health monitor
(:mod:`repro.serve.health`) reports degraded mode on ``/healthz`` when
disk headroom, spool writes or the disk-cache breaker go bad.
``python -m repro.serve.gauntlet`` exercises the crash paths,
including phase C's injected disk faults.

See ``docs/SERVICE.md`` for the architecture and the ops runbook.
"""

from repro.serve.health import HealthMonitor
from repro.serve.jobs import (
    DEFAULT_CLIENT,
    Job,
    JobQueue,
    JobState,
    options_from_json,
)
from repro.serve.server import ReproServer, resolve_state_dir
from repro.serve.spool import (
    SPOOL_SCHEMA_VERSION,
    KeyLock,
    ReplayReport,
    RequestSpool,
)

__all__ = [
    "DEFAULT_CLIENT",
    "HealthMonitor",
    "Job",
    "JobQueue",
    "JobState",
    "KeyLock",
    "ReplayReport",
    "ReproServer",
    "RequestSpool",
    "SPOOL_SCHEMA_VERSION",
    "options_from_json",
    "resolve_state_dir",
]
