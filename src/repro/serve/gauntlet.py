"""Crash-restart gauntlet: what the CI ``service-smoke`` job escalates to.

    python -m repro.serve.gauntlet [--circuits NAMES] [--phases ABC]

Three phases, all against real ``repro-serve`` subprocesses:

Every daemon synthesizes on a two-worker pool (``--jobs 2``), and none
of a SIGKILLed daemon's pool workers may be alive 5 s after the kill.

**Phase A — SIGKILL mid-queue.**  Boot one durable daemon
(``--state-dir``), submit a batch of small circuits without waiting,
and SIGKILL the process while most of them are still queued.  Restart
a daemon on the same state/cache directories and assert that

1. the boot replayed the unfinished backlog
   (``serve_spool_replayed`` > 0 and ``/healthz`` agrees);
2. every submitted circuit reaches ``done`` without being resubmitted;
3. each BLIF is byte-equal to an in-process reference synthesis —
   the crash changed *when* the answers arrived, not *what* they are.

**Phase B — two daemons, one cache.**  Boot two daemons sharing one
cache/state directory, submit the *same* fresh circuit to both, and
assert the results are bit-identical while the combined
``engine_requests_fresh`` across both daemons is exactly 1: the key
lock made one daemon do the work and the other answer from the shared
cache (``serve_lock_acquired`` confirms both took the lock).

**Phase C — disk faults under SIGKILL.**  Boot a daemon with a
:mod:`repro.resilience.faultfs` plan injected via ``REPRO_FAULTFS``:
the first three disk-cache entry writes hit ``ENOSPC``, one
pending-request spool write is torn mid-write, and one spool rename
fails with ``EIO``.  Assert that every job still completes with BLIF
byte-equal to the reference (the failed stores only cost persistence),
that ``cache_disk_errors`` counted exactly the three failed stores and
``serve_spool_write_errors`` both spool faults, and that once the plan is
spent the next circuit's entries persist at once.  Then SIGKILL the
daemon mid-traffic, restart it clean, assert the backlog completes
bit-identically, and finish by checking that the drained daemon left
no pending entry in the spool.

Exits non-zero with a message on the first violated assertion.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.circuits import get
from repro.engine import EngineConfig, SynthesisEngine, resolve_options
from repro.expr.pla import pla_from_spec, write_pla
from repro.network.blif import write_blif
from repro.serve.client import ServeClient
from repro.serve.spool import RequestSpool

_PORT_RE = re.compile(r"127\.0\.0\.1:(\d+)")

#: Small circuits (tens of milliseconds each): enough queue to outlive
#: the SIGKILL, cheap enough for a PR-gating CI job.
DEFAULT_CIRCUITS = ("rd53", "z4ml", "radd", "adr4", "rd73")

#: Phase A retries: if the daemon finished *everything* before the
#: SIGKILL landed there is nothing to replay — re-roll the race.
MAX_CRASH_ATTEMPTS = 3


class GauntletFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise GauntletFailure(message)


def _live_parent(pid: int) -> int | None:
    """Parent pid of a running ``pid``; ``None`` once it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
    except (OSError, ValueError):
        return None
    return None if state in "ZX" else int(ppid)


def child_pids(pid: int) -> list[int]:
    """The running children of ``pid``."""
    return [
        int(name)
        for name in os.listdir("/proc")
        if name.isdigit() and _live_parent(int(name)) == pid
    ]


def kill_and_reap_orphans(proc: subprocess.Popen) -> list[int]:
    """SIGKILL ``proc`` and give its children 5 s to end; SIGKILL and
    return those still running then, so a failed check leaks nothing."""
    children = child_pids(proc.pid)
    proc.kill()
    proc.wait(timeout=30)
    deadline = time.monotonic() + 5.0
    while children and time.monotonic() < deadline:
        time.sleep(0.1)
        children = [pid for pid in children if _live_parent(pid) is not None]
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return children


def _start_daemon(cache_dir: str, state_dir: str | None = None, *,
                  jobs: int = 2, env: dict[str, str] | None = None
                  ) -> tuple[subprocess.Popen, ServeClient]:
    """Boot ``repro-serve --jobs JOBS`` on an OS-chosen port, durable
    when ``state_dir`` is given; returns it with a ready client."""
    argv = [sys.executable, "-m", "repro.serve.cli", "--port", "0",
            "--cache-dir", cache_dir, "--jobs", str(jobs)]
    if state_dir is not None:
        argv += ["--state-dir", state_dir]
    proc = subprocess.Popen(argv, stderr=subprocess.PIPE, text=True,
                            env=env)
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if "listening" in line:
            break
        _check(proc.poll() is None, "daemon died before listening")
    match = _PORT_RE.search(line)
    _check(match is not None, f"no port in startup line: {line!r}")
    client = ServeClient(f"http://127.0.0.1:{match.group(1)}")
    client.wait_ready()
    return proc, client


def _sigkill(proc: subprocess.Popen) -> None:
    """SIGKILL a daemon; none of its pool workers may outlive it."""
    survivors = kill_and_reap_orphans(proc)
    proc.stderr.close()
    _check(not survivors, f"pool workers {survivors} outlived the daemon")


def _stop_daemon(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=60)
    proc.stderr.close()
    _check(code == 0, f"daemon exited {code} on SIGTERM (want 0)")


def _metric(metrics: str, name: str) -> float:
    total = 0.0
    for line in metrics.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.split()[-1])
    return total


def _wait_all_done(client: ServeClient, circuits: list[str],
                   timeout: float = 120.0) -> dict[str, dict]:
    """Poll ``/jobs`` until every circuit has a ``done`` job; id-keyed
    lookups don't survive a restart, circuit names do."""
    deadline = time.monotonic() + timeout
    while True:
        jobs = client.jobs()["jobs"]
        done = {job["circuit"]: job for job in jobs
                if job["state"] == "done"}
        failed = [job for job in jobs if job["state"] == "failed"]
        _check(not failed, f"jobs failed after restart: {failed}")
        if all(name in done for name in circuits):
            return {name: client.job(done[name]["id"])
                    for name in circuits}
        _check(time.monotonic() < deadline,
               f"timed out; done={sorted(done)}, want={circuits}")
        time.sleep(0.1)


def _references(circuits: list[str], plas: dict[str, str]) -> dict[str, str]:
    """In-process reference BLIFs, same options the daemon resolves."""
    engine = SynthesisEngine(EngineConfig(
        options=resolve_options(verify=True, cache=True, jobs=1)
    ))
    try:
        return {
            name: write_blif(engine.synthesize(get(name)).network)
            for name in circuits
        }
    finally:
        engine.close()


def phase_a_crash_restart(circuits: list[str],
                          plas: dict[str, str],
                          references: dict[str, str]) -> None:
    for attempt in range(1, MAX_CRASH_ATTEMPTS + 1):
        with tempfile.TemporaryDirectory(
                prefix="repro-gauntlet-a-") as tmp:
            cache_dir = os.path.join(tmp, "cache")
            state_dir = os.path.join(tmp, "state")
            print(f"gauntlet A: boot + enqueue (attempt {attempt}) ...",
                  flush=True)
            proc, client = _start_daemon(cache_dir, state_dir)
            accepted = []
            for name in circuits:
                doc = client.synthesize(plas[name], name=name, wait=False)
                _check(doc["state"] == "queued" or doc["state"] == "running",
                       f"unexpected 202 state {doc['state']!r}")
                accepted.append(doc["key"])
            # No drain, no warning: the daemon dies with the queue full.
            _sigkill(proc)
            print("gauntlet A: SIGKILL delivered, restarting ...",
                  flush=True)

            proc, client = _start_daemon(cache_dir, state_dir)
            try:
                replayed = client.health()["replayed"]
                if replayed == 0 and attempt < MAX_CRASH_ATTEMPTS:
                    # Everything finished before the kill landed; the
                    # premise (crash mid-queue) didn't hold — re-roll.
                    print("gauntlet A: nothing to replay, re-rolling",
                          flush=True)
                    _stop_daemon(proc)
                    continue
                _check(replayed > 0,
                       "restart found nothing to replay in the spool")
                # Jobs finished before the kill are gone from the
                # spool and stay finished (their results sit in the
                # shared cache); only the unfinished backlog reappears.
                pending = sorted({job["circuit"]
                                  for job in client.jobs()["jobs"]})
                _check(len(pending) == replayed,
                       f"{replayed} replayed but {len(pending)} queued")
                jobs = _wait_all_done(client, pending)
                for name in pending:
                    job = jobs[name]
                    _check(job["replayed"] is True,
                           f"{name} was not marked as a replayed job")
                    _check(job["key"] in accepted,
                           f"{name} replayed under a different key")
                    _check(job["result"]["blif"] == references[name],
                           f"{name}: replayed BLIF differs from reference")
                metrics = client.metrics()
                _check(_metric(metrics, "serve_spool_replayed") > 0,
                       "serve_spool_replayed metric is zero")
                print(f"gauntlet A: {replayed} jobs replayed, all "
                      "bit-identical to references", flush=True)
            finally:
                _stop_daemon(proc)
            return
    raise GauntletFailure("phase A never caught the daemon mid-queue")


def phase_b_two_daemons(circuit: str, plas: dict[str, str],
                        references: dict[str, str]) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-gauntlet-b-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        state_dir = os.path.join(tmp, "state")
        print("gauntlet B: booting two daemons on one cache ...",
              flush=True)
        proc_a, client_a = _start_daemon(cache_dir, state_dir)
        proc_b, client_b = _start_daemon(cache_dir, state_dir)
        try:
            # Submit the same key to both daemons before either can
            # finish: the key lock decides who synthesizes.
            sub_a = client_a.synthesize(plas[circuit], name=circuit,
                                        wait=False)
            sub_b = client_b.synthesize(plas[circuit], name=circuit,
                                        wait=False)
            _check(sub_a["key"] == sub_b["key"],
                   "same request hashed to different keys")
            job_a = client_a.wait_job(sub_a["id"])
            job_b = client_b.wait_job(sub_b["id"])
            for side, job in (("A", job_a), ("B", job_b)):
                _check(job["state"] == "done",
                       f"daemon {side} job {job['state']}: "
                       f"{job.get('error')}")
                _check(job["result"]["blif"] == references[circuit],
                       f"daemon {side} BLIF differs from reference")
            metrics_a = client_a.metrics()
            metrics_b = client_b.metrics()
            fresh = (_metric(metrics_a, "engine_requests_fresh")
                     + _metric(metrics_b, "engine_requests_fresh"))
            _check(fresh == 1.0,
                   f"expected exactly one fresh synthesis across both "
                   f"daemons, saw {fresh:g}")
            locks = (_metric(metrics_a, "serve_lock_acquired")
                     + _metric(metrics_b, "serve_lock_acquired"))
            _check(locks >= 2.0,
                   f"expected both daemons to take the key lock, saw "
                   f"{locks:g}")
            print("gauntlet B: one synthesis, two bit-identical answers, "
                  f"{locks:g} key-lock acquisitions", flush=True)
        finally:
            _stop_daemon(proc_a)
            _stop_daemon(proc_b)


def phase_c_disk_faults(circuits: list[str], plas: dict[str, str],
                        references: dict[str, str]) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-gauntlet-c-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        state_dir = os.path.join(tmp, "state")
        batch, probe = circuits[:-1], circuits[-1]
        env = dict(os.environ)
        # Three deterministic disk faults: the first three entry writes
        # hit ENOSPC, the second spool write is torn, and the first
        # spool rename fails with EIO.  The batch makes more than three
        # entry writes and at least two spool writes, so every fault
        # fires before the metrics check.
        env["REPRO_FAULTFS"] = (
            "write:enospc:path=entries:count=3;"
            "write:partial:path=pending:after=1:count=1;"
            "replace:eio:path=pending:count=1"
        )
        print("gauntlet C: booting under injected disk faults ...",
              flush=True)
        proc, client = _start_daemon(cache_dir, state_dir, env=env)
        accepted = []
        try:
            for name in batch:
                job = client.synthesize(plas[name], name=name, wait=True)
                _check(job["state"] == "done",
                       f"{name} {job['state']} under disk faults: "
                       f"{job.get('error')}")
                _check(job["result"]["blif"] == references[name],
                       f"{name}: BLIF under disk faults differs from "
                       "reference")
            metrics = client.metrics()
            _check(_metric(metrics, "faultfs_injected") > 0,
                   "no injected fault ever fired")
            errors = _metric(metrics, "cache_disk_errors")
            _check(errors == 3,
                   f"expected the 3 injected ENOSPC stores to count as "
                   f"cache_disk_errors, saw {errors:g}")
            _check(_metric(metrics, "serve_spool_write_errors") >= 2,
                   "the spool write errors were not counted")
            # The ENOSPC rule is spent: the probe circuit's entries
            # persist at once.
            puts = _metric(metrics, "cache_disk_puts")
            job = client.synthesize(plas[probe], name=probe, wait=True)
            _check(job["state"] == "done", f"probe circuit {probe} failed")
            _check(job["result"]["blif"] == references[probe],
                   f"{probe}: probe BLIF differs from reference")
            metrics = client.metrics()
            _check(_metric(metrics, "cache_disk_puts") > puts,
                   "the probe circuit's entries did not persist after "
                   "the disk recovered")
            _check(_metric(metrics, "cache_disk_errors") == 3,
                   "a store failed after the fault plan was spent")
            print("gauntlet C: 3 failed stores absorbed, the disk's "
                  "recovery persisted at once, results bit-identical",
                  flush=True)
            # Re-submit the batch without waiting and SIGKILL while the
            # spool still holds entries.
            for name in batch:
                doc = client.synthesize(plas[name], name=name, wait=False)
                accepted.append(doc["key"])
        finally:
            _sigkill(proc)
        print("gauntlet C: SIGKILL mid-traffic, restarting clean ...",
              flush=True)

        proc, client = _start_daemon(cache_dir, state_dir)
        try:
            jobs = _wait_all_done(
                client, sorted({job["circuit"]
                                for job in client.jobs()["jobs"]}))
            for name, job in jobs.items():
                _check(job["result"]["blif"] == references[name],
                       f"{name}: post-crash BLIF differs from reference")
        finally:
            _stop_daemon(proc)

        left = RequestSpool(state_dir).pending_keys()
        _check(not left, f"spool still lists pending entries: {left}")
        print("gauntlet C: spool drained empty after faults + SIGKILL",
              flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuits", default=",".join(DEFAULT_CIRCUITS),
                        metavar="NAMES",
                        help="comma-separated circuit names (first N-1 "
                             "feed phase A, the last feeds phase B)")
    parser.add_argument("--phases", default="ABC", metavar="LETTERS",
                        help="which phases to run (default ABC)")
    args = parser.parse_args(argv)

    phases = {letter for letter in args.phases.upper() if letter.strip()}
    unknown = phases - {"A", "B", "C"}
    _check(not unknown, f"unknown phases: {sorted(unknown)}")
    circuits = [name.strip() for name in args.circuits.split(",")
                if name.strip()]
    _check(len(circuits) >= 2, "need at least two circuits")
    plas = {name: write_pla(pla_from_spec(get(name))) for name in circuits}
    print("gauntlet: computing in-process references ...", flush=True)
    references = _references(circuits, plas)

    if "A" in phases:
        phase_a_crash_restart(circuits[:-1], plas, references)
    if "B" in phases:
        phase_b_two_daemons(circuits[-1], plas, references)
    if "C" in phases:
        phase_c_disk_faults(circuits, plas, references)
    print("gauntlet: OK", flush=True)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except GauntletFailure as exc:
        print(f"gauntlet: FAIL: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
