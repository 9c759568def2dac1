"""Cross-process lease files: pid/heartbeat-stamped mutual exclusion.

When several ``repro-serve`` daemons share one cache/state directory,
two of them must not spend wall-clock synthesizing the same
``request_key`` at the same time.  A lease is one small JSON file per
key under a shared directory:

.. code-block:: json

    {"schema": 1, "key": "...", "token": "<pid>-<nonce>", "pid": 4711,
     "host": "worker-3", "acquired_unix": 0.0, "heartbeat_unix": 0.0}

Acquisition is an ``O_CREAT | O_EXCL`` create — the filesystem's own
atomicity, no server process needed.  The holder refreshes
``heartbeat_unix`` periodically; a lease whose heartbeat is older than
the TTL is *stale* (its holder was SIGKILL'd or lost the machine) and
may be taken over: the challenger atomically renames its own stamp over
the file and then reads it back, keeping the lease only if its token
survived (verify-after-write, so two racing challengers resolve to at
most one owner).  Every write goes through :mod:`repro.resilience.
faultfs`, so disk-fault tests reach lease files too.

Leases are an *efficiency* mechanism, not a correctness one: the result
caches remain last-write-wins with content-identical values for equal
keys, so a duplicate synthesis sneaking through a lost race wastes time
but can never produce a wrong or torn answer.  That is why best-effort
file semantics are acceptable here.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass

from repro.resilience import faultfs

__all__ = ["DEFAULT_TTL_SECONDS", "Lease", "LeaseManager"]

LEASE_SCHEMA_VERSION = 1

#: A holder missing three heartbeat intervals is presumed dead.
DEFAULT_TTL_SECONDS = 15.0


@dataclass
class Lease:
    """A held lease: the proof token needed to heartbeat and release."""

    key: str
    path: str
    token: str
    acquired_unix: float


class LeaseManager:
    """Acquire/heartbeat/release leases under one shared directory."""

    def __init__(self, directory: str,
                 ttl_seconds: float = DEFAULT_TTL_SECONDS,
                 clock=time.time):
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.directory = directory
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        #: Stale leases this manager took over (the crash-recovery path).
        self.stale_takeovers = 0
        #: Lease-file operations that failed at the OS level (state dir
        #: deleted mid-run, disk gone read-only).  Work proceeds without
        #: mutual exclusion — leases are efficiency, not correctness.
        self.errors = 0
        os.makedirs(directory, exist_ok=True)

    # -- paths and stamps --------------------------------------------------

    def path_for(self, key: str) -> str:
        """Lease file for ``key`` (slashes flattened: keys are digests)."""
        safe = key.replace("/", "-").replace(os.sep, "-")
        return os.path.join(self.directory, f"{safe}.lease.json")

    def _stamp(self, key: str, token: str, acquired: float) -> dict:
        return {
            "schema": LEASE_SCHEMA_VERSION,
            "key": key,
            "token": token,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_unix": acquired,
            "heartbeat_unix": self.clock(),
        }

    def read_stamp(self, key: str) -> dict | None:
        """The current holder's stamp, or ``None`` (absent/torn file)."""
        try:
            with open(self.path_for(key), encoding="utf-8") as handle:
                stamp = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return stamp if isinstance(stamp, dict) else None

    def is_stale(self, stamp: dict | None) -> bool:
        """A missing/torn stamp or an expired heartbeat is stale."""
        if stamp is None:
            return True
        heartbeat = stamp.get("heartbeat_unix")
        if not isinstance(heartbeat, (int, float)):
            return True
        return self.clock() - heartbeat > self.ttl_seconds

    # -- lifecycle ---------------------------------------------------------

    def _create_excl(self, path: str) -> int:
        """``O_CREAT | O_EXCL`` create, recreating a vanished directory.

        If the state directory disappeared mid-run (an operator
        ``rm -rf``, a reaped tmpfs), recreate it and retry once.  When
        even that fails the :class:`OSError` propagates to the caller,
        which degrades to an unbacked lease rather than crashing the
        daemon's worker task.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            return faultfs.fs_open(path, flags)
        except FileExistsError:
            raise
        except OSError:
            os.makedirs(self.directory, exist_ok=True)
            return faultfs.fs_open(path, flags)

    def try_acquire(self, key: str) -> Lease | None:
        """One attempt to take the lease; ``None`` if a live peer holds it.

        Best-effort under filesystem failure: when the lease file cannot
        be created at all (state directory deleted and not recreatable),
        the returned lease is *unbacked* — synthesis proceeds without
        cross-daemon exclusion, ``errors`` counts the event, and the
        content-addressed caches keep duplicated work harmless.
        """
        path = self.path_for(key)
        token = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        acquired = self.clock()
        payload = json.dumps(self._stamp(key, token, acquired),
                             sort_keys=True)
        try:
            fd = self._create_excl(path)
        except FileExistsError:
            current = self.read_stamp(key)
            if not self.is_stale(current):
                return None
            # Stale (or torn) holder: rename our stamp over the file and
            # verify we won — at most one challenger reads its own token
            # back after the dust settles.
            try:
                faultfs.atomic_write_text(path, payload, fsync=False)
            except OSError:
                return None
            after = self.read_stamp(key)
            if after is None or after.get("token") != token:
                return None
            self.stale_takeovers += 1
            return Lease(key=key, path=path, token=token,
                         acquired_unix=acquired)
        except OSError:
            # The lease directory is gone and cannot come back.  Hand
            # out an unbacked lease: heartbeat() will report it lost,
            # release() is a no-op, and the work still happens.
            self.errors += 1
            return Lease(key=key, path=path, token=token,
                         acquired_unix=acquired)
        try:
            faultfs.fs_write(fd, payload.encode("utf-8"))
        except OSError:
            # A torn stamp reads as stale: peers may take the key over,
            # which duplicates work at worst.
            self.errors += 1
        finally:
            faultfs.fs_close(fd)
        return Lease(key=key, path=path, token=token, acquired_unix=acquired)

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh the holder stamp; ``False`` if the lease was lost."""
        current = self.read_stamp(lease.key)
        if current is None or current.get("token") != lease.token:
            return False
        stamp = self._stamp(lease.key, lease.token, lease.acquired_unix)
        try:
            faultfs.atomic_write_text(
                lease.path, json.dumps(stamp, sort_keys=True), fsync=False)
        except OSError:
            return False
        return True

    def release(self, lease: Lease) -> None:
        """Drop the lease if still held by us (idempotent)."""
        current = self.read_stamp(lease.key)
        if current is not None and current.get("token") == lease.token:
            try:
                os.unlink(lease.path)
            except OSError:
                pass
