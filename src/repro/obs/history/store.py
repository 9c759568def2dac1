"""Append-only JSONL run-history store.

Every record is one line of JSON: what ran (``kind``: ``engine``,
``bench``, ``serve``, ``sweep``), its content identity (the engine's
``request_key`` — spec digest / options fingerprint), the git SHA the
code was at, and the numbers worth a trajectory (wall seconds, gate and
literal counts).  The store never rewrites: appends are single
``O_APPEND`` writes, so concurrent recorders (a serve daemon and a
bench sweep sharing one file) interleave whole lines instead of
corrupting each other, the same last-write-wins discipline as the disk
cache.

The file to record into comes from the ``REPRO_HISTORY_FILE``
environment variable (set once per machine/CI job) or an explicit path;
with neither, recording is a no-op — the hot path must not grow a
mandatory disk write.

``repro-bench`` (:mod:`repro.obs.history.bench_cli`) reads the same
file to chart trajectories and flag regressions between snapshots.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

__all__ = [
    "HISTORY_FILE_ENV",
    "HISTORY_SCHEMA_VERSION",
    "RunHistoryStore",
    "append_jsonl",
    "current_git_sha",
    "read_jsonl",
    "resolve_history_path",
]

HISTORY_FILE_ENV = "REPRO_HISTORY_FILE"
HISTORY_SCHEMA_VERSION = 1

_GIT_SHA_CACHE: str | None = None


def current_git_sha() -> str:
    """The repo's HEAD SHA: ``REPRO_GIT_SHA`` env, else ``git rev-parse``.

    Cached per process (one subprocess at most); ``"unknown"`` when the
    working directory is not a git checkout, so recording never fails
    for environmental reasons.
    """
    global _GIT_SHA_CACHE
    explicit = os.environ.get("REPRO_GIT_SHA")
    if explicit:
        return explicit
    if _GIT_SHA_CACHE is None:
        try:
            _GIT_SHA_CACHE = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip() or "unknown"
        except Exception:  # noqa: BLE001 - no git, no repo, no problem
            _GIT_SHA_CACHE = "unknown"
    return _GIT_SHA_CACHE


def resolve_history_path(explicit: str | None = None) -> str | None:
    """Effective history file: explicit wins, else :data:`HISTORY_FILE_ENV`."""
    if explicit is not None:
        return explicit
    return os.environ.get(HISTORY_FILE_ENV) or None


def append_jsonl(path: str, record: dict) -> None:
    """Append one record to a JSONL file as a single ``O_APPEND`` write.

    The append-only discipline of the run-history store: whole lines
    written with one syscall interleave (never interleave bytes) under
    concurrent writers, and a crash mid-write leaves at most one torn
    tail line.  Before appending, the
    tail is healed: if the last byte is not a newline, the new line is
    prefixed with one so the torn line is terminated instead of glued to
    a fresh record (a resulting blank line is skipped by readers; two
    healers racing just make two blank lines).
    """
    from repro.resilience import faultfs

    line = json.dumps(record, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # The open/write pair goes through the injectable faultfs wrappers
    # so disk-fault tests can hand this exact path an ENOSPC or a torn
    # (partial) write and assert the readers shrug it off.
    fd = faultfs.fs_open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = "\n" + line
        faultfs.fs_write(fd, line.encode("utf-8"))
    finally:
        faultfs.fs_close(fd)


def read_jsonl(path: str) -> list[dict]:
    """All parseable dict records of a JSONL file, oldest first.

    Torn, blank or hand-mangled lines are skipped, not fatal — an
    append-only log must stay readable after a crash mid-write.
    """
    if not os.path.exists(path):
        return []
    out: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                out.append(record)
    return out


class RunHistoryStore:
    """One JSONL file of run records, append-only."""

    def __init__(self, path: str):
        self.path = path

    # -- writing -----------------------------------------------------------

    def append(self, record: dict) -> dict:
        """Stamp and append one record; returns the stamped record.

        Fills ``schema``, ``created_unix`` and ``git_sha`` when absent.
        The write is one ``O_APPEND`` syscall of one line, safe under
        concurrent writers.
        """
        stamped = dict(record)
        stamped.setdefault("schema", HISTORY_SCHEMA_VERSION)
        stamped.setdefault("created_unix", time.time())
        stamped.setdefault("git_sha", current_git_sha())
        append_jsonl(self.path, stamped)
        return stamped

    # -- reading -----------------------------------------------------------

    def records(self, kind: str | None = None,
                request_key: str | None = None) -> list[dict]:
        """All (parseable) records, oldest first, optionally filtered.

        A torn or hand-mangled line is skipped, not fatal: an append-only
        log must stay readable after a crash mid-write.
        """
        out: list[dict] = []
        for record in read_jsonl(self.path):
            if kind is not None and record.get("kind") != kind:
                continue
            if request_key is not None \
                    and record.get("request_key") != request_key:
                continue
            out.append(record)
        return out

    def latest_by_key(self, kind: str | None = None) -> dict[str, dict]:
        """Newest record per ``request_key`` (records without one skipped)."""
        latest: dict[str, dict] = {}
        for record in self.records(kind=kind):
            key = record.get("request_key")
            if key:
                latest[key] = record
        return latest
