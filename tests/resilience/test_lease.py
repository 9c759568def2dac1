"""Per-key locks: the ``flock`` a serve worker holds on a request key.

The lock lives with the rest of the state-dir layout in
:mod:`repro.serve.spool`; the serve metrics count it as
``serve.lock.acquired``/``serve.lock.waits``.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

import pytest

import repro
from repro.obs.metrics import get_metrics_registry
from repro.serve.spool import KeyLock, RequestSpool


@pytest.fixture()
def spool(tmp_path):
    return RequestSpool(str(tmp_path / "state"))


def holder_process(spool, code: str) -> subprocess.Popen:
    """A child interpreter that takes key ``k``'s lock, then runs ``code``."""
    return subprocess.Popen(
        [sys.executable, "-c",
         "import os, sys, time\n"
         "from repro.serve.spool import RequestSpool\n"
         "lock = RequestSpool(sys.argv[1]).try_lock('k')\n" + code,
         os.path.dirname(spool.pending_dir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
    )


def test_acquire_release_roundtrip(spool):
    lock = spool.try_lock("spec/opts")
    assert isinstance(lock, KeyLock) and lock.fd is not None
    assert os.path.exists(lock.path)
    spool.unlock(lock)
    assert not os.path.exists(lock.path)
    again = spool.try_lock("spec/opts")
    assert again is not None and again.fd is not None
    spool.unlock(again)


def test_live_holder_blocks_second_acquire(tmp_path):
    # Two spools on one directory, as two daemons would have; flock
    # excludes per open file, so one process is enough to show it.
    first = RequestSpool(str(tmp_path / "state"))
    second = RequestSpool(str(tmp_path / "state"))
    lock = first.try_lock("k")
    assert lock is not None
    assert second.try_lock("k") is None
    assert first.try_lock("k") is None
    first.unlock(lock)
    taken = second.try_lock("k")
    assert taken is not None and taken.fd is not None
    second.unlock(taken)


def test_keys_are_independent(spool):
    a = spool.try_lock("a/1")
    b = spool.try_lock("b/2")
    assert a is not None and b is not None
    assert a.path != b.path
    spool.unlock(a)
    spool.unlock(b)


def test_key_slashes_flattened_to_one_file(spool):
    path = spool.lock_path("digest/fingerprint")
    assert os.sep not in os.path.basename(path)
    assert os.path.dirname(path) == spool.lock_dir
    assert path.endswith(".lock")


def test_sigkilled_holder_frees_the_key_at_once(spool):
    holder = holder_process(
        spool,
        "print('held' if lock and lock.fd is not None else 'busy',"
        " flush=True)\n"
        "sys.stdin.read()\n")
    try:
        assert holder.stdout.readline().strip() == "held"
        assert spool.try_lock("k") is None
        holder.send_signal(signal.SIGKILL)
        assert holder.wait(timeout=30) == -signal.SIGKILL
        # No sleep, no clock: the kernel released the dead holder's
        # lock when it closed its files, and its lock file is reused.
        lock = spool.try_lock("k")
        assert lock is not None and lock.fd is not None
        spool.unlock(lock)
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait(timeout=30)
        holder.stdin.close()
        holder.stdout.close()


def test_fork_of_a_killed_holder_does_not_keep_the_key(spool):
    """A pool worker forked while its daemon held a key, and orphaned
    when the daemon was SIGKILLed, must not keep the key locked."""
    holder = holder_process(
        spool,
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "print(pid, flush=True)\n"
        "sys.stdin.read()\n")
    orphan = None
    try:
        orphan = int(holder.stdout.readline())
        assert spool.try_lock("k") is None
        holder.send_signal(signal.SIGKILL)
        assert holder.wait(timeout=30) == -signal.SIGKILL
        os.kill(orphan, 0)  # the forked worker outlives its daemon
        lock = spool.try_lock("k")
        assert lock is not None and lock.fd is not None
        spool.unlock(lock)
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait(timeout=30)
        if orphan is not None:
            os.kill(orphan, signal.SIGKILL)
        holder.stdin.close()
        holder.stdout.close()


def test_lock_on_an_unlinked_inode_is_retried(spool, monkeypatch):
    real_open = spool._open_lock
    peer = []

    def open_then_race(path):
        fd = real_open(path)
        if not peer:
            # Between this open and the flock, the old holder unlinks
            # the file and unlocks, and a peer locks a new file at the
            # same path.
            os.unlink(path)
            peer.append(os.open(path, os.O_RDWR | os.O_CREAT))
            fcntl.flock(peer[0], fcntl.LOCK_EX)
        return fd

    monkeypatch.setattr(spool, "_open_lock", open_then_race)
    # The flock on the unlinked inode succeeds, but that inode is no
    # longer the key's lock: the peer holds the key.
    assert spool.try_lock("k") is None
    fcntl.flock(peer[0], fcntl.LOCK_UN)
    os.close(peer[0])
    lock = spool.try_lock("k")
    assert lock is not None and lock.fd is not None
    assert os.fstat(lock.fd).st_ino == os.stat(lock.path).st_ino
    spool.unlock(lock)


def test_acquire_recreates_vanished_directory(spool):
    first = spool.try_lock("a")
    shutil.rmtree(spool.lock_dir)
    # Acquisition self-heals: the directory comes back and the lock is
    # a real, held file again.
    lock = spool.try_lock("b")
    assert lock is not None and lock.fd is not None
    assert os.path.exists(lock.path)
    spool.unlock(first)  # its file is gone already: no error
    spool.unlock(lock)
    assert spool.write_errors == 0


def test_unrecreatable_directory_degrades_to_unbacked_lease(tmp_path):
    state = tmp_path / "state"
    spool = RequestSpool(str(state))
    # The whole state tree is a *file*: makedirs cannot bring the lock
    # directory back.
    state.write_text("not a directory any more")
    errors = get_metrics_registry().counter("serve.spool.write_errors", "")
    before = errors.value
    lock = spool.try_lock("k")
    # The job runs without exclusion rather than crashing or spinning,
    # and the failure is counted where the health monitor looks.
    assert lock is not None and lock.fd is None
    assert spool.write_errors == 1
    assert errors.value == before + 1
    spool.unlock(lock)  # no-op
    assert spool.try_lock("k2").fd is None
    assert spool.write_errors == 2
