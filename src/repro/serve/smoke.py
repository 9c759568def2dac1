"""End-to-end service smoke: what the CI job runs.

    python -m repro.serve.smoke [--keep-cache DIR]

Boots a real ``repro-serve`` process against a temporary cache
directory, submits the same small PLA twice, and asserts the full
service contract:

1. both responses are ``done`` with bit-identical BLIF;
2. the second request cost no second synthesis (in-flight dedup, a
   memory-cache hit, or — across a restart — a disk-cache hit);
3. ``/metrics`` serves Prometheus text including the serve counters;
4. a second daemon on the same cache directory answers from disk
   (``cache_disk_hits`` > 0) — the restart-warm acceptance path;
5. the daemon runs durable (``--state-dir``): ``/healthz`` reports it,
   no spool write failed, and the SIGTERM drain leaves the
   pending-request spool empty;
6. SIGTERM drains gracefully and the process exits 0.

The *crash* paths — SIGKILL mid-queue, spool replay, two live
daemons on one cache — are the separate, heavier
``python -m repro.serve.gauntlet``.  Exits non-zero with a message on
the first violated assertion.
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
from repro.expr.pla import pla_from_spec, write_pla
from repro.serve.client import ServeClient
from repro.serve.spool import RequestSpool

_PORT_RE = re.compile(r"127\.0\.0\.1:(\d+)")


class SmokeFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _start_daemon(cache_dir: str,
                  state_dir: str | None = None
                  ) -> tuple[subprocess.Popen, ServeClient]:
    argv = [sys.executable, "-m", "repro.serve.cli",
            "--port", "0", "--cache-dir", cache_dir]
    if state_dir is not None:
        argv += ["--state-dir", state_dir]
    proc = subprocess.Popen(argv, stderr=subprocess.PIPE, text=True)
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


def _stop_daemon(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    proc.stderr.close()
    _check(code == 0, f"daemon exited {code} on SIGTERM (want 0)")


def _metric(metrics: str, name: str) -> float:
    for line in metrics.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep-cache", default=None, metavar="DIR",
                        help="use DIR instead of a throwaway tempdir")
    args = parser.parse_args(argv)

    pla = write_pla(pla_from_spec(get("rd53")))
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        cache_dir = args.keep_cache or os.path.join(tmp, "cache")
        state_dir = os.path.join(tmp, "state")

        print("smoke: starting repro-serve ...", flush=True)
        proc, client = _start_daemon(cache_dir, state_dir)
        try:
            health = client.health()
            _check(health.get("durable") is True,
                   "daemon with --state-dir does not report durable")
            first = client.synthesize(pla, name="rd53", wait=True)
            _check(first["state"] == "done",
                   f"first job {first['state']}: {first.get('error')}")
            second = client.synthesize(pla, name="rd53", wait=True)
            _check(second["state"] == "done", "second job failed")
            _check(first["result"]["blif"] == second["result"]["blif"],
                   "responses are not bit-identical")

            metrics = client.metrics()
            _check(_metric(metrics, "serve_jobs_submitted") == 2.0,
                   "expected 2 submissions in /metrics")
            # One synthesis total: either the second submission joined the
            # first in flight (dedup) or it hit the result cache.
            synthesized_twice = (
                _metric(metrics, "serve_dedup_hits") == 0.0
                and _metric(metrics, "cache_memory_hits") == 0.0
            )
            _check(not synthesized_twice,
                   "second request was neither deduped nor a cache hit")
            print("smoke: dedup/cache hit confirmed", flush=True)
            _check(_metric(metrics, "journal_write_errors") == 0.0,
                   "spool writes failed on a healthy disk")
        finally:
            _stop_daemon(proc)
        print("smoke: graceful SIGTERM drain, exit 0", flush=True)

        left = RequestSpool(state_dir).pending_keys()
        _check(not left, f"spool still lists pending entries: {left}")
        print("smoke: spool empty after the drain", flush=True)

        print("smoke: restarting on the same cache dir ...", flush=True)
        proc, client = _start_daemon(cache_dir, state_dir)
        try:
            warm = client.synthesize(pla, name="rd53", wait=True)
            _check(warm["result"]["blif"] == first["result"]["blif"],
                   "restart result differs from original")
            metrics = client.metrics()
            _check(_metric(metrics, "cache_disk_hits") > 0,
                   "restarted daemon recorded no disk-cache hits")
            print("smoke: restart answered from the disk cache", flush=True)
        finally:
            _stop_daemon(proc)

    print("smoke: OK", flush=True)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except SmokeFailure as exc:
        print(f"smoke: FAIL: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
