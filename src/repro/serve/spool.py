"""The serve state directory: pending-request spool and per-key locks.

Results live in the content-addressed disk cache, so a durable
``repro-serve`` keeps only its backlog and its key locks under
``--state-dir``::

    pending/<key>.json   written before the 202, removed when done
    failed/<key>.json    entry + error: the job raised or cannot replay
    locks/<key>.lock     flock(2)-held while a worker synthesizes the key

``<key>`` is the request key with ``/`` flattened.  An entry holds what
rebuilds the job (PLA, circuit, JSON options, client, submit time) and
is written atomically without fsync, which survives SIGKILL.  Re-adding
a key overwrites its entry.  Schema-1 entries also carry a ``priority``
that replay ignores; a schema-1 daemon leaves schema-2 entries in place.
OS errors are absorbed into ``write_errors`` for the health monitor.
The ``journal.jsonl`` of older releases is not read: drain such a
daemon with SIGTERM first.

A key lock is an exclusive ``flock`` on the key's lock file, so daemons
sharing one state directory on one machine never synthesize a key twice
at once.  The kernel drops the lock when its holder's process dies, even
by SIGKILL, and forked children (pool workers) close their copies of
held locks, so an orphaned child cannot keep one.  The holder unlinks
the file before it unlocks, so a waiter that then locks the old inode
sees it no longer matches the path and retries on the new file.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
from typing import NamedTuple

from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.resilience import faultfs

__all__ = ["SPOOL_SCHEMA_VERSION", "KeyLock", "ReplayReport", "RequestSpool"]

SPOOL_SCHEMA_VERSION = 2

#: Descriptors of the key locks this process holds.  A forked child
#: (a pool worker) closes its copies at once: a copy keeps the lock held,
#: so a worker orphaned by a SIGKILLed daemon would keep its keys locked.
#: The guard keeps a fork out of the gap between open and registration.
_held_fds: set[int] = set()
_held_guard = threading.Lock()

#: Entry fields replay needs, with their JSON types.
_FIELDS = (("request_key", str), ("circuit", str), ("pla", str),
           ("options", dict), ("client", str), ("ts", (int, float)))


class ReplayReport(NamedTuple):
    """What :meth:`RequestSpool.replay` found (metrics feed off this)."""

    #: Entries to re-enqueue, oldest first.
    pending: list[dict]
    #: Entries left in place for a newer schema version.
    skipped_schema: int
    #: Unparsable entries moved to ``failed/``.
    failed: int


class KeyLock(NamedTuple):
    """A taken key lock (see :meth:`RequestSpool.try_lock`)."""

    path: str
    #: The descriptor holding the ``flock``; ``None`` when the lock file
    #: could not be opened and the job runs without exclusion.
    fd: int | None


class RequestSpool:
    """Spool entries and key locks under one state dir."""

    def __init__(self, state_dir: str, clock=time.time):
        self.pending_dir = os.path.join(state_dir, "pending")
        self.failed_dir = os.path.join(state_dir, "failed")
        self.lock_dir = os.path.join(state_dir, "locks")
        self.clock = clock
        #: Writes/moves (accepted but not durable) and lock opens (run
        #: without exclusion) lost to OS faults.
        self.write_errors = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.pending_dir, f"{_flatten(key)}.json")

    def lock_path(self, key: str) -> str:
        return os.path.join(self.lock_dir, f"{_flatten(key)}.lock")

    def add(self, *, request_key: str, circuit: str, pla: str,
            options: dict, client: str) -> None:
        """Spool a new submission; called *before* its 202 goes out."""
        self._write(self.path_for(request_key), {
            "schema": SPOOL_SCHEMA_VERSION, "request_key": request_key,
            "circuit": circuit, "pla": pla, "options": options,
            "client": client, "ts": self.clock(),
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

    def try_lock(self, key: str) -> KeyLock | None:
        """One non-blocking try at ``key``'s lock; ``None`` while another
        open file description holds it.

        When the lock file cannot be opened, even after recreating
        ``locks/``, the error counts in ``write_errors`` and the lock
        comes back unheld: the job runs without exclusion, which at
        worst repeats work the content-addressed cache keeps harmless.
        """
        path = self.lock_path(key)
        while True:
            try:
                with _held_guard:
                    fd = self._open_lock(path)
                    _held_fds.add(fd)
            except OSError as exc:
                self._absorb(exc)
                return KeyLock(path, None)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                _held_fds.discard(fd)
                faultfs.fs_close(fd)
                return None
            if _same_inode(fd, path):
                return KeyLock(path, fd)
            _release(fd)  # a holder unlinked this inode; lock the new one

    def unlock(self, lock: KeyLock) -> None:
        """Unlink a held lock's file, then release it."""
        if lock.fd is not None:
            self._unlink(lock.path)
            _release(lock.fd)

    def _open_lock(self, path: str) -> int:
        flags = os.O_RDWR | os.O_CREAT
        try:
            return faultfs.fs_open(path, flags)
        except FileNotFoundError:  # first use, or the directory vanished
            os.makedirs(self.lock_dir, exist_ok=True)
            return faultfs.fs_open(path, flags)

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
            "spool writes and moves, and lock opens, lost to OS-level "
            "faults",
        ).inc()
        log_event("serve.spool.write_error", error=str(exc))


def _flatten(key: str) -> str:
    return key.replace("/", "-").replace(os.sep, "-")


def _same_inode(fd: int, path: str) -> bool:
    try:
        return os.fstat(fd).st_ino == os.stat(path).st_ino
    except OSError:
        return False


def _release(fd: int) -> None:
    # An explicit LOCK_UN, not just close: a child forked by native code,
    # which skips the at-fork hook below, would keep a copy of the
    # descriptor and with it the lock.
    fcntl.flock(fd, fcntl.LOCK_UN)
    _held_fds.discard(fd)
    faultfs.fs_close(fd)


def _close_held_fds_in_child() -> None:
    for fd in _held_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    _held_fds.clear()
    _held_guard.release()


os.register_at_fork(before=_held_guard.acquire,
                    after_in_parent=_held_guard.release,
                    after_in_child=_close_held_fds_in_child)


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
