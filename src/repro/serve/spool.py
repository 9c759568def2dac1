"""Pending-request spool: one file per accepted, unfinished job.

Results live in the content-addressed disk cache, so a durable
``repro-serve`` keeps only its backlog under ``--state-dir``::

    pending/<key>.json   written before the 202, removed when done
    failed/<key>.json    entry + error: the job raised or cannot replay

``<key>`` is the request key with ``/`` flattened.  An entry holds what
rebuilds the job (PLA, circuit, JSON options, priority, client, submit
time) and is written atomically without fsync, which survives SIGKILL.
Re-adding a key overwrites its entry.  OS errors are absorbed into
``write_errors`` for the health monitor.  The ``journal.jsonl`` of
older releases is not read: drain such a daemon with SIGTERM first.
"""

from __future__ import annotations

import json
import os
import time
from typing import NamedTuple

from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.resilience import faultfs

__all__ = ["SPOOL_SCHEMA_VERSION", "ReplayReport", "RequestSpool"]

SPOOL_SCHEMA_VERSION = 1

#: Entry fields replay needs, with their JSON types.
_FIELDS = (("request_key", str), ("circuit", str), ("pla", str),
           ("options", dict), ("priority", str), ("client", str),
           ("ts", (int, float)))


class ReplayReport(NamedTuple):
    """What :meth:`RequestSpool.replay` found (metrics feed off this)."""

    #: Entries to re-enqueue, oldest first.
    pending: list[dict]
    #: Entries left in place for a newer schema version.
    skipped_schema: int
    #: Unparsable entries moved to ``failed/``.
    failed: int


class RequestSpool:
    """Add, remove, fail and replay the entries under one state dir."""

    def __init__(self, state_dir: str, clock=time.time):
        self.pending_dir = os.path.join(state_dir, "pending")
        self.failed_dir = os.path.join(state_dir, "failed")
        self.clock = clock
        #: Writes/moves lost to OS faults: accepted but not durable.
        self.write_errors = 0

    def path_for(self, key: str) -> str:
        safe = key.replace("/", "-").replace(os.sep, "-")
        return os.path.join(self.pending_dir, f"{safe}.json")

    def add(self, *, request_key: str, circuit: str, pla: str,
            options: dict, priority: str, client: str) -> None:
        """Spool a new submission; called *before* its 202 goes out."""
        self._write(self.path_for(request_key), {
            "schema": SPOOL_SCHEMA_VERSION, "request_key": request_key,
            "circuit": circuit, "pla": pla, "options": options,
            "priority": priority, "client": client, "ts": self.clock(),
        })

    def remove(self, request_key: str) -> None:
        """Drop a finished job's entry."""
        self._unlink(self.path_for(request_key))

    def fail(self, request_key: str, error: str) -> None:
        """Move a job's entry to ``failed/`` with its error."""
        self._move_to_failed(self.path_for(request_key), error)

    def pending_keys(self) -> list[str]:
        """Request keys with a pending entry, oldest first."""
        return [entry["request_key"] for entry in self._scan()[0]]

    def failed(self) -> list[dict]:
        """The ``failed/`` records: ``entry``, ``error``, ``failed_unix``."""
        records = []
        for name in _listdir(self.failed_dir):
            with open(os.path.join(self.failed_dir, name),
                      encoding="utf-8") as handle:
                records.append(json.load(handle))
        return records

    def replay(self) -> ReplayReport:
        """Pending entries oldest first.  Unparsable entries move to
        ``failed/``; newer-schema ones stay in place."""
        pending, skipped_schema, bad = self._scan()
        for path, error in bad:
            self._move_to_failed(path, error)
        return ReplayReport(pending, skipped_schema, len(bad))

    def _scan(self) -> tuple[list[dict], int, list[tuple[str, str]]]:
        found, skipped_schema, bad = [], 0, []
        for name in _listdir(self.pending_dir):
            path = os.path.join(self.pending_dir, name)
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
                if _newer_schema(entry):
                    skipped_schema += 1
                    continue
            except FileNotFoundError:
                continue  # finished by a peer since the listing
            except (OSError, ValueError) as exc:
                bad.append((path, f"unreadable entry: {exc}"))
                continue
            found.append((entry["ts"], name, entry))
        return [entry for _, _, entry in sorted(found)], skipped_schema, bad

    def _move_to_failed(self, path: str, error: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                entry = handle.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            self._absorb(exc)
            return
        try:
            entry = json.loads(entry)
        except ValueError:
            pass  # kept as text
        target = os.path.join(self.failed_dir, os.path.basename(path))
        if self._write(target, {"entry": entry, "error": error,
                                "failed_unix": self.clock()}):
            self._unlink(path)

    def _unlink(self, path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            self._absorb(exc)

    def _write(self, path: str, doc: dict) -> bool:
        try:
            faultfs.atomic_write_text(path, json.dumps(doc, sort_keys=True),
                                      fsync=False)
        except OSError as exc:
            self._absorb(exc)
            return False
        return True

    def _absorb(self, exc: OSError) -> None:
        self.write_errors += 1
        # The name predates the spool; dashboards and the gauntlet read it.
        get_metrics_registry().counter(
            "journal.write.errors",
            "spool writes and moves lost to OS-level faults",
        ).inc()
        log_event("serve.spool.write_error", error=str(exc))


def _listdir(directory: str) -> list[str]:
    """Sorted entry files; temp files of in-flight writes are skipped."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(name for name in names if name.endswith(".json"))


def _newer_schema(entry) -> bool:
    """True for a newer schema's entry; ValueError unless it is valid."""
    if not isinstance(entry, dict) or type(entry.get("schema")) is not int:
        raise ValueError("not a spool entry")
    if entry["schema"] > SPOOL_SCHEMA_VERSION:
        return True
    for name, kind in _FIELDS:
        if not isinstance(entry.get(name), kind):
            raise ValueError(f"spool entry field {name!r} is missing")
    if not entry["request_key"]:
        raise ValueError("spool entry has an empty request key")
    return False
