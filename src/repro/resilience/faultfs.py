"""Deterministic filesystem fault injection for the storage stack.

Every durable artifact in the system — the serve pending-request
spool and key-lock files, the disk-backed result cache and its
quarantine move, the structured log sink — is written or opened
through a handful of primitives: ``open``, ``write``, ``fsync``,
``rename``.  This module wraps exactly those primitives so a test (or
the disk-fault gauntlet, :mod:`repro.serve.gauntlet` phase C) can
inject ``ENOSPC``/``EIO``/partial-write/fsync-failure faults
*deterministically* — by call count and path pattern, not by filling a
real disk — and assert that the storage layer degrades instead of
corrupting state or crashing the daemon.

With no plan installed every wrapper is a single global ``None`` check
in front of the real syscall, so production code pays nothing for the
injectability.

A plan is installed either in-process (:func:`install`) or — for
subprocess daemons the gauntlet boots — via the :data:`FAULTFS_ENV`
environment variable, parsed on first use.  The spec grammar is
semicolon-separated rules of colon-separated fields::

    op:kind[:path=SUBSTRING][:after=N][:count=M]

    write:enospc:path=entries:after=2     # ENOSPC on disk-cache entry
                                          # writes, skipping the first 2
    fsync:eio:path=entries                # every cache-entry fsync fails
    write:partial:path=pending:count=1    # one torn spool write

``op`` is one of ``open``/``write``/``fsync``/``replace`` or ``*``;
``kind`` is ``enospc``, ``eio`` or ``partial`` (write a prefix of the
payload, then raise ``ENOSPC`` — the torn-write shape).  ``path``
matches substrings of the target path; ``after`` skips the first N
matching calls; ``count`` bounds how many faults the rule injects
(unset = every matching call), which is how a test models a disk that
*recovers* — the next store after the plan is spent persists again.

Injected faults are counted in the ``faultfs.injected`` metric so a
gauntlet can assert the faults actually fired.
"""

from __future__ import annotations

import errno
import os
import threading
from dataclasses import dataclass, field

__all__ = [
    "FAULTFS_ENV",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "atomic_write_text",
    "clear",
    "fs_close",
    "fs_fsync",
    "fs_open",
    "fs_replace",
    "fs_write",
    "install",
    "parse_plan",
]

FAULTFS_ENV = "REPRO_FAULTFS"

_ERRNO_BY_KIND = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "partial": errno.ENOSPC,  # the error after the torn prefix
}
_OPS = ("open", "write", "fsync", "replace", "*")


@dataclass
class FaultRule:
    """One injection rule: which op/path to hit, when, how often."""

    op: str
    kind: str
    path: str = ""
    #: Skip the first N matching calls before injecting.
    after: int = 0
    #: Inject at most N faults (``None`` = every matching call forever).
    count: int | None = None
    matched: int = 0
    injected: int = 0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown faultfs op {self.op!r}")
        if self.kind not in _ERRNO_BY_KIND:
            raise ValueError(f"unknown faultfs kind {self.kind!r}")

    def take(self, op: str, path: str) -> bool:
        """Does this rule fire for one ``op`` on ``path``?  (Counts.)"""
        if self.op != "*" and op != self.op:
            return False
        if self.path and self.path not in path:
            return False
        self.matched += 1
        if self.matched <= self.after:
            return False
        if self.count is not None and self.injected >= self.count:
            return False
        self.injected += 1
        return True


@dataclass
class FaultPlan:
    """An ordered rule list; the first matching rule wins."""

    rules: list[FaultRule] = field(default_factory=list)
    injected_total: int = 0

    def check(self, op: str, path: str) -> FaultRule | None:
        for rule in self.rules:
            if rule.take(op, path):
                self.injected_total += 1
                return rule
        return None


def parse_plan(spec: str) -> FaultPlan:
    """Parse the :data:`FAULTFS_ENV` grammar into a :class:`FaultPlan`."""
    rules: list[FaultRule] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) < 2:
            raise ValueError(f"faultfs rule needs op:kind, got {chunk!r}")
        op, kind = fields[0], fields[1]
        kwargs: dict = {}
        for extra in fields[2:]:
            name, sep, value = extra.partition("=")
            if not sep:
                raise ValueError(f"faultfs field {extra!r} is not key=value")
            if name == "path":
                kwargs["path"] = value
            elif name == "after":
                kwargs["after"] = int(value)
            elif name == "count":
                kwargs["count"] = int(value)
            else:
                raise ValueError(f"unknown faultfs field {name!r}")
        rules.append(FaultRule(op=op, kind=kind, **kwargs))
    return FaultPlan(rules=rules)


# -- plan installation --------------------------------------------------------

_LOCK = threading.Lock()
_PLAN: FaultPlan | None = None
_ENV_CHECKED = False

#: fd -> path, so write/fsync faults can match by path pattern.
_FD_PATHS: dict[int, str] = {}


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (replacing any active plan)."""
    global _PLAN, _ENV_CHECKED
    with _LOCK:
        _PLAN = plan
        _ENV_CHECKED = True
    return plan


def clear() -> None:
    """Remove the active plan (wrappers become passthroughs again)."""
    global _PLAN, _ENV_CHECKED
    with _LOCK:
        _PLAN = None
        _ENV_CHECKED = True


def active_plan() -> FaultPlan | None:
    """The installed plan, loading :data:`FAULTFS_ENV` on first use."""
    global _PLAN, _ENV_CHECKED
    if _PLAN is not None:
        return _PLAN
    if not _ENV_CHECKED:
        with _LOCK:
            if not _ENV_CHECKED:
                spec = os.environ.get(FAULTFS_ENV)
                if spec:
                    _PLAN = parse_plan(spec)
                _ENV_CHECKED = True
    return _PLAN


def _count_injection() -> None:
    from repro.obs.metrics import get_metrics_registry

    get_metrics_registry().counter(
        "faultfs.injected", "filesystem faults injected by faultfs"
    ).inc()


def _raise_fault(rule: FaultRule, path: str) -> None:
    _count_injection()
    code = _ERRNO_BY_KIND[rule.kind]
    raise OSError(code, os.strerror(code), path)


def _check(op: str, path: str) -> FaultRule | None:
    plan = active_plan()
    if plan is None:
        return None
    with _LOCK:
        return plan.check(op, path)


# -- the injectable primitives ------------------------------------------------


def fs_open(path: str, flags: int, mode: int = 0o644) -> int:
    """``os.open`` with fault injection; registers the fd's path."""
    rule = _check("open", path)
    if rule is not None:
        _raise_fault(rule, path)
    fd = os.open(path, flags, mode)
    if active_plan() is not None:
        with _LOCK:
            _FD_PATHS[fd] = path
    return fd


def fs_write(fd: int, data: bytes) -> int:
    """``os.write`` with fault injection (``partial`` = torn write)."""
    with _LOCK:
        path = _FD_PATHS.get(fd, "")
    rule = _check("write", path)
    if rule is not None:
        if rule.kind == "partial" and len(data) > 1:
            os.write(fd, data[: len(data) // 2])
        _raise_fault(rule, path)
    return os.write(fd, data)


def fs_fsync(fd: int) -> None:
    """``os.fsync`` with fault injection."""
    with _LOCK:
        path = _FD_PATHS.get(fd, "")
    rule = _check("fsync", path)
    if rule is not None:
        _raise_fault(rule, path)
    os.fsync(fd)


def fs_close(fd: int) -> None:
    """``os.close``; forgets the fd's registered path."""
    with _LOCK:
        _FD_PATHS.pop(fd, None)
    os.close(fd)


def fs_replace(src: str, dst: str) -> None:
    """``os.replace`` with fault injection (matched against ``dst``)."""
    rule = _check("replace", dst)
    if rule is not None:
        _raise_fault(rule, dst)
    os.replace(src, dst)


# -- composed helper ----------------------------------------------------------


def atomic_write_text(path: str, text: str, fsync: bool = True) -> None:
    """Atomic temp+fsync+rename write through the injectable primitives.

    The shared discipline of the disk cache and the serve spool: a
    reader never sees a half-written file, and a crash (or injected
    fault) at any point leaves either the old content or the new, plus
    at worst a temp file that the next write cleans up by name reuse.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp = f"{path}.tmp-{os.getpid()}"
    fd = fs_open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        try:
            fs_write(fd, text.encode("utf-8"))
            if fsync:
                fs_fsync(fd)
        finally:
            fs_close(fd)
        fs_replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
