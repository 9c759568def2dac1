"""Parallel multi-output synthesis with crash isolation.

Outputs are independent until the resub merge, so their pipelines can
run across a :mod:`concurrent.futures` process pool.  Every worker runs
the same per-output runner as the serial path
(:func:`~repro.flow.passes.run_output`), so results are bit-identical
to a serial run.  Unlike a plain ``pool.map``, each output is submitted
as its own future, which is what makes the pool *crash-isolated*:

* a worker that dies (``os._exit``, OOM kill, segfault) breaks the
  pool, but futures that already completed keep their results;
* a worker that hangs trips a per-output watchdog (no completion within
  ``SynthesisOptions.timeout_per_output`` seconds, the window's one
  source), and the pool's processes are terminated.

Either way the pool is done: each call builds one, and every output
without a pool result then runs once in-process through the same
runner, where injected worker faults cannot fire and a real pipeline
error surfaces as it would serially.  The flow is a pure function of
the output and the options, so that one run recovers the output
exactly.

Any pool-level failure that prevents the pool from even starting (fork
limits, pickling) degrades gracefully: the caller falls back to the
serial path and notes the reason in the trace.

What crosses the process boundary is plain data, keyed by no object id
or address.  A task is ``(output, options, deadline, context)``; the
deadline is a ``time.monotonic()`` value, system-wide on Linux, which
the worker installs as its ambient :class:`~repro.resilience.Budget`.
A worker returns an :class:`~repro.flow.context.OutputRun`: ``variants``,
``report`` and ``seconds``, plus its serialized ``output:<name>`` span
tree (``spans``, re-parented under the parent's ``parallel-map`` span),
its stack samples (``profile``) and its :data:`SHIPPED_COUNTERS` deltas
(``counters``, added to the parent's registry).  Workers never touch
the result cache; the driver is its only client.  The start method is
pinned in :data:`POOL_CONTEXT`, and a worker ends itself once the
pool's owner is gone (:func:`_watch_owner`).

Fault injection (used by the fuzz harness, guarded so it can never fire
in production): ``REPRO_FAULT_WORKER_CRASH=<origin-pid>:<output-name>``
makes a *pool worker* processing that output die via ``os._exit(1)``;
``REPRO_FAULT_WORKER_HANG=<origin-pid>:<output-name>:<seconds>`` makes
it sleep.  They are environment variables because they must reach the
worker processes.  The origin-pid guard (the fault only fires when
``os.getpid() != origin-pid``) keeps the in-process run clean, which is
exactly the recovery story the fuzz lane asserts.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.core.options import SynthesisOptions
from repro.errors import ReproError, WorkerCrashError
from repro.flow.context import OutputRun
from repro.flow.passes import run_output
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
from repro.spec import OutputSpec

#: Prefixes of the registry counters a worker ships home per output
#: (``OutputRun.counters``): OFDD work, and FPRM quality fallbacks such
#: as ``fprm.polarity.exhaustive_capped``.
SHIPPED_COUNTERS = ("ofdd.", "fprm.")

#: The pool's start method, pinned rather than left to the platform:
#: ``fork``, what Linux has always run.  ``forkserver`` (the default from
#: Python 3.14) misses environment set after its server started, such as
#: the fault hooks below and the log sink; ``spawn`` re-imports the
#: package in every worker.  Tests patch this to run under ``spawn``.
POOL_CONTEXT = multiprocessing.get_context("fork")

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


def _watch_owner() -> None:
    """Pool initializer: end this worker once the pool's owner is gone.

    A worker blocked on its task queue never sees its owner die (it
    holds the queue's write end itself).  Every start method hands it a
    pipe whose write end only the owner keeps (and, under ``fork``,
    siblings forked later, which watch in turn); a daemon thread waits
    for that end to close and exits the worker.  The pipe predates the
    worker, so an owner that dies before this runs is caught too, and it
    is the owner's, not the parent's (under ``forkserver`` the server).
    """
    owner = multiprocessing.parent_process()

    def watch() -> None:
        owner.join()
        os._exit(1)

    threading.Thread(target=watch, name="repro-owner-watch",
                     daemon=True).start()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=POOL_CONTEXT,
                               initializer=_watch_owner)


def _pool_worker(
    payload: tuple[OutputSpec, SynthesisOptions, float | None, dict | None],
) -> OutputRun:
    output, options, deadline, context = payload
    _maybe_inject_fault(output.name)
    # The parent's budget and request context are thread-local and do
    # not cross into a worker: install fresh ones from the shipped data,
    # so drained degradation notes and log correlation ids are this
    # output's own.
    budget = Budget.until(deadline) if deadline is not None else None
    previous_budget = install_budget(budget) if budget is not None else None
    previous_context = install_run_context(RunContext.from_dict(context)) \
        if context is not None else None
    # Workers are long-lived: ship this output's counter delta only.
    registry = get_metrics_registry()
    counters_before = registry.counter_values(SHIPPED_COUNTERS)
    # The root stands for the parent's parallel-map span, so profile
    # samples carry the parent's path; the output spans ship home.
    tracer = SpanTracer("parallel-map", "flow") if options.trace else None
    previous = install(tracer) if tracer is not None else None
    profiler = (
        SamplingProfiler(interval=options.profile_interval,
                         tracer=tracer).start()
        if options.profile and tracer is not None else None
    )
    log_event("worker.output.start", output=output.name)
    try:
        run = run_output(output, options)
        if profiler is not None:
            run.profile = profiler.stop().as_dict()
            profiler = None
        if tracer is not None:
            run.spans = [node.as_dict() for node in tracer.finish().children]
        after = registry.counter_values(SHIPPED_COUNTERS)
        run.counters = {name: value - counters_before.get(name, 0)
                        for name, value in after.items()
                        if value > counters_before.get(name, 0)}
        log_event("worker.output.done", output=output.name)
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
) -> tuple[list[OutputRun] | None, str | None, int]:
    """Run the per-output pipelines across one crash-isolated process pool.

    Returns ``(runs, None, recovered)`` on success — ``runs`` in input
    order, ``recovered`` the number of them that ran in-process because
    the pool gave no result — or ``(None, reason, 0)`` when the pool
    could not even be started and the caller should fall back to the
    serial path.  Deterministic pipeline errors
    (:class:`~repro.errors.ReproError`) are re-raised unchanged (the
    serial path would hit them too).  A crash, a hang or any other error
    of a worker costs its output one in-process run; only a failure
    *there* raises :class:`~repro.errors.WorkerCrashError`.
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
    # The watchdog window; ``None`` or a non-positive value disables it.
    timeout = options.timeout_per_output
    if timeout is not None and timeout <= 0:
        timeout = None
    metrics = get_metrics_registry()

    try:
        pool = _new_pool(workers)
    except Exception as err:  # noqa: BLE001 - fork/resource failures vary
        return None, f"{type(err).__name__}: {err}", 0
    runs: list[OutputRun | None] = [None] * len(outputs)
    broken = False
    try:
        outstanding = {}
        try:
            for index, output in enumerate(outputs):
                future = pool.submit(
                    _pool_worker, (output, options, deadline, context)
                )
                outstanding[future] = index
        except Exception:  # noqa: BLE001 - the pool broke during submit
            broken = True
        while outstanding:
            done, _ = wait(list(outstanding), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # Watchdog: nothing completed within the window, so a
                # worker is hung.  The pool is killed below.
                metrics.counter(
                    "resilience.watchdog_kills",
                    "pools killed by the per-output watchdog",
                ).inc()
                broken = True
                break
            for future in done:
                index = outstanding.pop(future)
                try:
                    runs[index] = future.result()
                except BrokenProcessPool:
                    # A worker died and broke the pool; futures that
                    # completed before keep their results.
                    broken = True
                except ReproError:
                    raise
                except Exception:  # noqa: BLE001 - runs in-process below
                    pass
    finally:
        if broken:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=False, cancel_futures=True)

    recovered = 0
    for index, run in enumerate(runs):
        if run is not None:
            continue
        # No pool result: this output runs once in-process, where
        # injected worker faults cannot fire, under the caller's own
        # tracer, budget and registry.
        recovered += 1
        metrics.counter(
            "resilience.serial_fallbacks",
            "outputs recovered on the in-process serial path",
        ).inc()
        try:
            runs[index] = run_output(outputs[index], options)
        except ReproError:
            raise
        except Exception as err:  # noqa: BLE001 - genuinely unrecoverable
            raise WorkerCrashError(
                outputs[index].name, 2, f"{type(err).__name__}: {err}",
            ) from err
    return [run for run in runs if run is not None], None, recovered
