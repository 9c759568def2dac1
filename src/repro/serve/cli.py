"""repro-serve — run the synthesis service from the command line.

    repro-serve [--host H] [--port P] [--cache-dir DIR] [--state-dir DIR]
                [--cache-max-mb N] [--workers N] [--jobs N] [--no-verify]
                [--max-queue-depth N] [--min-free-mb N]

``--cache-dir`` (or ``REPRO_CACHE_DIR``) attaches the disk-backed
result cache, so results survive daemon restarts and are shared with
``repro-synth``/harness runs pointed at the same directory.
``--state-dir`` (or ``REPRO_SERVE_STATE_DIR``) makes the *queue*
durable too: accepted jobs are spooled and replayed after a crash,
and per-key locks under the same directory coordinate several daemons
on one machine sharing one cache.  ``--jobs`` sets how many pool
processes one multi-output job may fan out to; ``--workers`` sets how
many jobs run concurrently.  ``--max-queue-depth`` sheds submissions
with 503 + ``Retry-After`` past the high-water mark, and
``--min-free-mb`` makes ``/healthz`` report degraded mode before the
state disk actually fills.  The daemon drains gracefully on
SIGTERM/SIGINT and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.engine import EngineConfig, resolve_cache_dir, resolve_options
from repro.flow.disk_cache import DEFAULT_MAX_BYTES
from repro.obs.logs import LOG_FILE_ENV, configure, log_event, logging_enabled
from repro.serve.server import ReproServer, resolve_state_dir


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="FPRM synthesis service (asyncio, stdlib only)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8348,
                        help="TCP port (0 = let the OS pick)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk-backed result cache shared across "
                             "processes (default: REPRO_CACHE_DIR)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="durable queue state: pending-request "
                             "spool + key locks (default: "
                             "REPRO_SERVE_STATE_DIR; unset = in-memory "
                             "queue)")
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        metavar="N",
                        help="shed submissions with 503 + Retry-After "
                             "once N jobs are waiting or running "
                             "(unset = unbounded queue)")
    parser.add_argument("--min-free-mb", type=int, default=None,
                        metavar="N",
                        help="report degraded mode on /healthz when "
                             "the state dir's filesystem has less than "
                             "N MiB free")
    parser.add_argument("--cache-max-mb", type=int,
                        default=DEFAULT_MAX_BYTES // (1024 * 1024),
                        metavar="N", help="disk cache size budget for GC")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="concurrent jobs (default 1)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="pool processes per multi-output job "
                             "(0 = all cores, the default)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip equivalence checking per job")
    parser.add_argument("--log-file", default=None, metavar="FILE",
                        help="structured JSON log sink shared with pool "
                             f"workers (default: {LOG_FILE_ENV}; "
                             "'-' = stderr, daemon lines only)")
    args = parser.parse_args(argv)

    # A file sink travels into forked pool workers via the env var, so
    # one request's lines — daemon and workers — share a correlation id.
    if args.log_file == "-":
        configure(sys.stderr)
    elif args.log_file is not None:
        os.environ[LOG_FILE_ENV] = args.log_file

    config = EngineConfig(
        options=resolve_options(
            verify=not args.no_verify,
            cache=True,
            jobs=args.jobs,
        ),
        cache_dir=resolve_cache_dir(args.cache_dir),
        cache_max_bytes=args.cache_max_mb * 1024 * 1024,
    )
    state_dir = resolve_state_dir(args.state_dir)
    server = ReproServer(config, host=args.host, port=args.port,
                         workers=args.workers,
                         state_dir=state_dir,
                         max_queue_depth=args.max_queue_depth,
                         min_free_mb=args.min_free_mb)

    async def run() -> None:
        await server.start()
        print(f"repro-serve listening on http://{server.host}:{server.port}"
              + (f" (cache: {config.cache_dir})" if config.cache_dir else "")
              + (f" (state: {state_dir}, replayed {server.replayed})"
                 if state_dir else ""),
              file=sys.stderr, flush=True)
        if logging_enabled():
            log_event("serve.started", host=server.host, port=server.port,
                      workers=args.workers, state_dir=state_dir,
                      replayed=server.replayed)
        await server.serve_forever(install_signals=True)

    asyncio.run(run())
    if logging_enabled():
        log_event("serve.stopped")
    print("repro-serve: drained, bye", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
