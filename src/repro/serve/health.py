"""Health monitor: the daemon's own resource watchdog, report-only.

Overload shedding (:mod:`repro.serve.jobs`) protects the queue from
*traffic*; this monitor watches the *machine*.  A background task
samples three signals every couple of seconds:

1. **disk headroom** — free bytes on the state directory's filesystem
   (via :func:`shutil.disk_usage`, injectable for tests) against the
   configured floor;
2. **spool write errors** — fresh failures to write or move a
   pending-request entry, or to open a key lock, since the last sample
   (an ``ENOSPC`` spool means accepted work is no longer durable);
3. **cache write errors** — fresh failures of the engine's disk tier
   to store an entry since the last sample (results are not being
   persisted, so a restart will recompute them).

Any firing signal puts the daemon in *degraded mode*: ``GET /healthz``
reports ``"status": "degraded"`` with the reasons, so an operator — or
a load balancer — can see *why* before the disk actually runs out.
Degraded mode sheds nothing: every request keeps its answer, which the
disk-fault gauntlet relies on while cache writes fail.  When every
signal clears, the next sample lifts degraded mode; recovery needs no
restart.

The ``serve.degraded`` gauge (0/1) and per-reason
``serve.degraded.reasons`` counters make the transitions visible in
``/metrics`` history.
"""

from __future__ import annotations

import asyncio
import shutil

from repro.flow.disk_cache import DiskCacheTier
from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.serve.spool import RequestSpool

__all__ = ["DEFAULT_INTERVAL_SECONDS", "HealthMonitor"]

DEFAULT_INTERVAL_SECONDS = 2.0


class HealthMonitor:
    """Samples resource signals and reports the daemon's degraded mode."""

    def __init__(self, *,
                 spool: RequestSpool | None = None,
                 state_dir: str | None = None,
                 min_free_bytes: int | None = None,
                 disk_cache: DiskCacheTier | None = None,
                 interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
                 disk_usage=shutil.disk_usage):
        self.state_dir = state_dir
        self.min_free_bytes = min_free_bytes
        self.interval_seconds = interval_seconds
        self.disk_usage = disk_usage
        self.checks = 0
        #: Reason -> a source counting its lost writes in ``write_errors``.
        self._writers: dict[str, RequestSpool | DiskCacheTier] = {}
        if spool is not None:
            self._writers["spool-write-errors"] = spool
        if disk_cache is not None:
            self._writers["cache-write-errors"] = disk_cache
        self._errors_seen = {
            reason: source.write_errors
            for reason, source in self._writers.items()
        }
        self._task: asyncio.Task | None = None
        self._last_reasons: tuple[str, ...] = ()

    @property
    def reasons(self) -> list[str]:
        """The reasons the last sample found; empty means healthy."""
        return list(self._last_reasons)

    # -- one sample --------------------------------------------------------

    def check(self) -> list[str]:
        """Sample every signal once; returns the active reasons."""
        self.checks += 1
        reasons: list[str] = []
        reasons.extend(self._check_disk_headroom())
        reasons.extend(self._check_write_errors())
        registry = get_metrics_registry()
        if tuple(reasons) != self._last_reasons:
            for reason in reasons:
                if reason not in self._last_reasons:
                    registry.counter(
                        "serve.degraded.reasons",
                        "times a degradation reason became active",
                        labels={"reason": reason.split(":", 1)[0]},
                    ).inc()
            log_event("serve.health.transition",
                      reasons=reasons, previous=list(self._last_reasons))
            self._last_reasons = tuple(reasons)
        registry.gauge(
            "serve.degraded", "1 while the daemon is in degraded mode"
        ).set(1 if reasons else 0)
        return reasons

    def _check_disk_headroom(self) -> list[str]:
        if self.state_dir is None or not self.min_free_bytes:
            return []
        try:
            free = self.disk_usage(self.state_dir).free
        except OSError:
            # The state dir vanished: that *is* a degradation, and it is
            # worse than low headroom.
            return ["state-dir-missing"]
        if free < self.min_free_bytes:
            return [f"low-disk:{free // (1024 * 1024)}mb-free"]
        return []

    def _check_write_errors(self) -> list[str]:
        """A reason per source with failed writes since the last sample.

        No new failures: writes either succeed again or are not
        happening, so the reason lifts optimistically; the next failed
        write re-raises it within one interval.
        """
        reasons = []
        for reason, source in self._writers.items():
            errors = source.write_errors
            if errors > self._errors_seen[reason]:
                reasons.append(reason)
            self._errors_seen[reason] = errors
        return reasons

    # -- background task ---------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-health")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            self.check()
            await asyncio.sleep(self.interval_seconds)
