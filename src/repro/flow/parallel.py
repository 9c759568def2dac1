"""Parallel multi-output synthesis with crash isolation.

Outputs are independent until the resub merge, so their pipelines can
run across a :mod:`concurrent.futures` process pool.  Every worker runs
the same pure per-output pipeline, so results are bit-identical to a
serial run.  Unlike a plain ``pool.map``, each output is submitted as
its own future, which is what makes the pool *crash-isolated*:

* a worker that dies (``os._exit``, OOM kill, segfault) poisons the
  pool, but futures that already completed keep their results — only
  the unfinished outputs are retried;
* a worker that hangs trips a per-output watchdog (no completion within
  ``timeout_per_output`` seconds), the pool's processes are terminated
  and the unfinished outputs are retried;
* retries rebuild the pool and back off with deterministic jitter
  (:class:`~repro.resilience.retry.RetryPolicy`); when an output
  exhausts its retries it runs in-process on the serial path, where
  injected worker faults cannot fire and a real pipeline error can
  surface naturally.

Any pool-level failure that prevents the pool from even starting (fork
limits, pickling) degrades gracefully: the caller falls back to the
serial path and notes the reason in the trace.

Observability across the process boundary: everything a worker records —
its span tree, its result-cache hits/misses — is process-local and would
be silently lost when the worker exits.  Each worker therefore installs
its own :class:`~repro.obs.spans.SpanTracer` (when tracing is on),
consults the worker-local result cache (when caching is on), and ships
both the serialized spans and a ``worker_stats`` dict back inside the
:class:`~repro.flow.context.OutputRun`; the parent re-parents the spans
under its own trace and aggregates the stats into the
:class:`~repro.flow.trace.FlowTrace`.  Run deadlines travel with the
payload: ``time.monotonic()`` is system-wide on Linux, so a deadline
computed in the parent is meaningful inside a forked worker, where it is
installed as the worker's ambient :class:`~repro.resilience.Budget`.

Fault injection (used by the fuzz harness, guarded so it can never fire
in production): ``REPRO_FAULT_WORKER_CRASH=<origin-pid>:<output-name>``
makes a *pool worker* processing that output die via ``os._exit(1)``;
``REPRO_FAULT_WORKER_HANG=<origin-pid>:<output-name>:<seconds>`` makes
it sleep.  The origin-pid guard (the fault only fires when
``os.getpid() != origin-pid``) keeps the in-process serial fallback
clean, which is exactly the recovery story the fuzz lane asserts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.core.options import SynthesisOptions
from repro.errors import ReproError, WorkerCrashError
from repro.flow.cache import cache_key, get_result_cache
from repro.flow.context import OutputRun
from repro.flow.passes import run_output_pipeline
from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.obs.prof.profiler import SamplingProfiler
from repro.obs.runctx import (
    RunContext,
    current_run_context,
    install_run_context,
)
from repro.obs.spans import SpanTracer, install, uninstall
from repro.resilience.budget import Budget, current_budget, install_budget
from repro.resilience.retry import RetryPolicy
from repro.spec import OutputSpec

#: Prefixes of the registry counters a worker ships home per output
#: (``worker_stats["counters"]``): OFDD work, and FPRM quality fallbacks
#: such as ``fprm.polarity.exhaustive_capped``.
SHIPPED_COUNTERS = ("ofdd.", "fprm.")

#: Environment default for ``SynthesisOptions.timeout_per_output``.
TIMEOUT_ENV = "REPRO_TIMEOUT_PER_OUTPUT"

CRASH_FAULT_ENV = "REPRO_FAULT_WORKER_CRASH"
HANG_FAULT_ENV = "REPRO_FAULT_WORKER_HANG"


def resolve_jobs(jobs: int) -> int:
    """Effective worker count: ``0`` means all *usable* cores, floor 1.

    ``sched_getaffinity`` respects cgroup/taskset CPU masks (containers,
    CI runners), where ``os.cpu_count()`` would oversubscribe; it is
    Linux-only, so the plain count stays as the fallback.
    """
    if jobs == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):
            return os.cpu_count() or 1
    return max(1, jobs)


def effective_timeout_per_output(explicit: float | None) -> float | None:
    """Watchdog window: explicit option wins, else :data:`TIMEOUT_ENV`.

    ``None`` (or a non-positive value) disables the watchdog; an
    unparsable environment value is ignored rather than fatal.
    """
    if explicit is not None:
        return explicit if explicit > 0 else None
    raw = os.environ.get(TIMEOUT_ENV)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value > 0 else None
    return None


def _maybe_inject_fault(output_name: str) -> None:
    """Honour the fuzz harness's worker-fault environment hooks.

    Both hooks carry the pid of the process that *set* them; a fault
    only fires in a different process (a pool worker), never in the
    origin process itself — so the serial fallback always recovers.
    """
    crash = os.environ.get(CRASH_FAULT_ENV)
    if crash:
        origin, _, name = crash.partition(":")
        if name in (output_name, "*") and origin.isdigit() \
                and os.getpid() != int(origin):
            os._exit(1)
    hang = os.environ.get(HANG_FAULT_ENV)
    if hang:
        origin, _, rest = hang.partition(":")
        name, _, seconds = rest.partition(":")
        if name in (output_name, "*") and origin.isdigit() \
                and os.getpid() != int(origin):
            try:
                time.sleep(float(seconds))
            except ValueError:
                pass


def _pool_worker(
    payload: tuple[OutputSpec, SynthesisOptions]
    | tuple[OutputSpec, SynthesisOptions, float | None]
    | tuple[OutputSpec, SynthesisOptions, float | None, dict | None],
) -> OutputRun:
    output, options = payload[0], payload[1]
    deadline = payload[2] if len(payload) > 2 else None
    context = RunContext.from_dict(payload[3]) if len(payload) > 3 else None
    _maybe_inject_fault(output.name)
    # Never rely on fork-inheriting the parent's ambient budget (it is
    # thread-local and may carry stale degradation notes); install a
    # fresh budget against the shipped deadline so notes drained into
    # this output's report are its own.
    budget = Budget.until(deadline) if deadline is not None else None
    previous_budget = install_budget(budget) if budget is not None else None
    # The request context cannot fork-inherit either (thread-local, and
    # the pool outlives any single request): install the shipped one so
    # this worker's log lines join the parent's correlation id.
    previous_context = install_run_context(context) \
        if context is not None else None
    stats = {"pid": os.getpid(), "cache": {"hits": 0, "misses": 0}}
    # Workers are long-lived: snapshot the shipped counters so the stats
    # sent home are this output's delta, not the process lifetime's.
    counters_before = get_metrics_registry().counter_values(SHIPPED_COUNTERS)
    tracer = (
        SpanTracer(root_name=f"output:{output.name}", category="output")
        if options.trace else None
    )
    previous = install(tracer) if tracer is not None else None
    profiler = (
        SamplingProfiler(interval=options.profile_interval,
                         tracer=tracer).start()
        if options.profile and tracer is not None else None
    )
    log_event("worker.output.start", output=output.name)
    try:
        run: OutputRun | None = None
        cache = get_result_cache() if options.cache else None
        key: str | None = None
        if cache is not None:
            # The parent's cache lives in another process; consulting the
            # worker-local one still pays off whenever one worker sees the
            # same output function twice (duplicate outputs, chunked maps).
            key = cache_key(output, options)
            hit = cache.lookup(key, output)
            if hit is not None:
                stats["cache"]["hits"] += 1
                if tracer is not None:
                    lookup = hit.records[0]
                    with tracer.span("cache-lookup", category="pass") as node:
                        node.set(
                            output=output.name,
                            gates_before=lookup.gates_before,
                            gates_after=lookup.gates_after,
                            details=lookup.details,
                        )
                run = hit
            else:
                stats["cache"]["misses"] += 1
        if run is None:
            ctx = run_output_pipeline(output, options)
            assert ctx.report is not None
            run = OutputRun(variants=ctx.variants, report=ctx.report,
                            records=ctx.records)
            # Degraded results are partial-effort and must never seed
            # future runs; the cache only keeps full-effort entries.
            if cache is not None and key is not None \
                    and not run.report.degraded:
                cache.store(key, run)
        if profiler is not None:
            run.profile = profiler.stop().as_dict()
            profiler = None
        if tracer is not None:
            root = tracer.finish()
            root.set(output=output.name)
            run.spans = [root.as_dict()]
        counters_after = get_metrics_registry().counter_values(
            SHIPPED_COUNTERS)
        delta = {
            name: value - counters_before.get(name, 0)
            for name, value in counters_after.items()
            if value - counters_before.get(name, 0)
        }
        if delta:
            stats["counters"] = delta
        run.worker_stats = stats
        log_event("worker.output.done", output=output.name,
                  cached=run.cached or stats["cache"]["hits"] > 0)
        return run
    finally:
        if profiler is not None:
            profiler.stop()
        if tracer is not None:
            uninstall(previous)
        if budget is not None:
            install_budget(previous_budget)
        if context is not None:
            install_run_context(previous_context)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and reap it without waiting.

    ``shutdown`` alone never kills a hung worker; terminating the
    processes directly (private but stable attribute) is what turns the
    watchdog from advisory into effective.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers etc.
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - broken pools refuse some shutdowns
        pass


def run_outputs_in_pool(
    outputs: list[OutputSpec],
    options: SynthesisOptions,
    jobs: int,
) -> tuple[list[OutputRun] | None, str | None]:
    """Run the per-output pipelines across a crash-isolated process pool.

    Returns ``(runs, None)`` on success — in input order — or
    ``(None, reason)`` when the pool could not even be started and the
    caller should fall back to the serial path.  Deterministic pipeline
    errors (:class:`~repro.errors.ReproError`) are re-raised unchanged
    (the serial path would hit them too); everything else about a worker
    — crashes, hangs, transient per-output exceptions — is retried per
    ``options.retries`` and finally absorbed by an in-process serial
    fallback for just that output.
    """
    workers = min(resolve_jobs(jobs), len(outputs))
    ambient = current_budget()
    deadline = ambient.deadline if ambient is not None else None
    # Ship the ambient request context (correlation id) with every task:
    # thread-locals don't cross the process boundary, and the pool may
    # serve many requests over its lifetime, so fork inheritance would
    # pin workers to whichever request happened to build the pool.
    ambient_context = current_run_context()
    context = ambient_context.as_dict() if ambient_context is not None \
        else None
    timeout = effective_timeout_per_output(options.timeout_per_output)
    policy = RetryPolicy(max_retries=max(0, options.retries))
    metrics = get_metrics_registry()

    runs: list[OutputRun | None] = [None] * len(outputs)
    failures = [0] * len(outputs)
    pool: ProcessPoolExecutor | None = None
    try:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except Exception as err:  # noqa: BLE001 - fork/resource failures vary
            return None, f"{type(err).__name__}: {err}"
        round_index = 0
        while True:
            pending = [
                index for index, run in enumerate(runs)
                if run is None and failures[index] <= policy.max_retries
            ]
            if not pending:
                break
            if round_index:
                metrics.counter(
                    "resilience.retries",
                    "per-output pool retries after crash/hang",
                ).inc(len(pending))
                time.sleep(policy.delay(round_index))
            if pool is None:
                metrics.counter("resilience.pool_rebuilds",
                                "process pools rebuilt after a kill").inc()
                try:
                    pool = ProcessPoolExecutor(max_workers=workers)
                except Exception:  # noqa: BLE001
                    break  # cannot rebuild: remaining outputs go serial
            round_index += 1
            outstanding = {}
            try:
                for index in pending:
                    future = pool.submit(
                        _pool_worker,
                        (outputs[index], options, deadline, context),
                    )
                    outstanding[future] = index
            except Exception:  # noqa: BLE001 - pool broke during submit
                _kill_pool(pool)
                pool = None
                for index in pending:
                    if index not in outstanding.values():
                        failures[index] += 1
            broken = False
            while outstanding:
                done, _ = wait(list(outstanding), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # Watchdog: nothing completed within the window — a
                    # worker is hung.  Kill the pool; every unfinished
                    # output counts one failed attempt.
                    metrics.counter(
                        "resilience.watchdog_kills",
                        "pools killed by the per-output watchdog",
                    ).inc()
                    for index in outstanding.values():
                        failures[index] += 1
                    broken = True
                    break
                for future in done:
                    index = outstanding.pop(future)
                    try:
                        runs[index] = future.result()
                    except BrokenProcessPool:
                        # This worker (or a sibling) died; completed
                        # futures kept their results — only this output
                        # is charged a failed attempt.
                        failures[index] += 1
                        broken = True
                    except ReproError:
                        raise
                    except Exception:  # noqa: BLE001 - retry, then serial
                        failures[index] += 1
            if broken:
                _kill_pool(pool)
                pool = None
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    for index, run in enumerate(runs):
        if run is not None:
            continue
        # Retries exhausted (or the pool is gone): this output alone
        # runs in-process, where injected worker faults cannot fire.
        metrics.counter(
            "resilience.serial_fallbacks",
            "outputs recovered on the in-process serial path",
        ).inc()
        try:
            runs[index] = _pool_worker(
                (outputs[index], options, deadline, context)
            )
        except ReproError:
            raise
        except Exception as err:  # noqa: BLE001 - genuinely unrecoverable
            raise WorkerCrashError(
                outputs[index].name,
                failures[index] + 1,
                f"{type(err).__name__}: {err}",
            ) from err
    return [run for run in runs if run is not None], None
