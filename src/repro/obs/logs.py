"""Structured JSON logging with ambient correlation IDs.

One function — :func:`log_event` — emits one line of JSON per event:
timestamp, pid, event name, the ambient :class:`~repro.obs.runctx.
RunContext` (correlation id + request_key, when one is installed), and
whatever fields the caller adds.  The serve daemon logs request and job
lifecycle events through it; pool workers log through it too, and
because the sink can be a *file path* (inherited through ``fork`` via
the ``REPRO_LOG_FILE`` environment variable) the daemon's lines and the
workers' lines land in one place, joinable on the correlation id.

Sinks, in priority order:

* an explicitly :func:`configure`\\ d stream (the serve CLI passes
  ``sys.stderr``);
* the ``REPRO_LOG_FILE`` environment variable — every write opens the
  file in append mode and writes one line, so concurrent processes
  interleave whole records (``O_APPEND`` semantics), never fragments;
* neither → logging is off and :func:`log_event` costs one attribute
  read and one ``dict.get``.
"""

from __future__ import annotations

import json
import os
import sys
import time

__all__ = ["LOG_FILE_ENV", "configure", "log_event", "logging_enabled"]

LOG_FILE_ENV = "REPRO_LOG_FILE"

_stream = None          # explicitly configured stream (None = not set)
_env_checked_pid = -1   # pid the env cache below is valid for
_env_path: str | None = None


def configure(stream=None) -> None:
    """Set (or with ``None``, clear) the explicit stream sink."""
    global _stream
    _stream = stream


def _path_sink() -> str | None:
    """The env-var file sink, re-checked after a fork (pid change)."""
    global _env_checked_pid, _env_path
    pid = os.getpid()
    if pid != _env_checked_pid:
        _env_checked_pid = pid
        _env_path = os.environ.get(LOG_FILE_ENV) or None
    return _env_path


def logging_enabled() -> bool:
    return _stream is not None or _path_sink() is not None


def log_event(event: str, **fields) -> None:
    """Emit one structured log line (no-op when no sink is configured)."""
    stream = _stream
    path = _path_sink()
    if stream is None and path is None:
        return
    from repro.obs.runctx import current_run_context

    record: dict = {"ts": round(time.time(), 6), "pid": os.getpid(),
                    "event": event}
    context = current_run_context()
    if context is not None:
        record["correlation_id"] = context.correlation_id
        if context.request_key:
            record["request_key"] = context.request_key
    record.update(fields)
    try:
        line = json.dumps(record, default=str)
    except (TypeError, ValueError):
        line = json.dumps({"ts": record["ts"], "pid": record["pid"],
                           "event": event, "error": "unserializable fields"})
    if path is not None:
        # Through the injectable faultfs primitives like every other
        # durable writer, so disk-fault tests reach the log sink too.
        from repro.resilience import faultfs

        try:
            fd = faultfs.fs_open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                faultfs.fs_write(fd, (line + "\n").encode("utf-8"))
            finally:
                faultfs.fs_close(fd)
        except OSError:  # sink gone or disk full: logging stays best-effort
            pass
    if stream is not None:
        try:
            print(line, file=stream, flush=True)
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass


def _main_demo() -> int:  # pragma: no cover - manual smoke helper
    configure(sys.stderr)
    log_event("demo", note="structured logging works")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main_demo())
