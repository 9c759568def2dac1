"""Disk-backed tier of the content-addressed result cache.

The in-memory :class:`~repro.flow.cache.ResultCache` dies with the
process, so every cold harness run — and every worker of a long-running
service — pays full synthesis price for functions the machine has
already solved.  This module persists entries under the *same* key
scheme (``output_digest/fingerprint``) in a directory that all
processes share:

    <dir>/entries/<output-digest>/<options-fingerprint>.json
    <dir>/quarantine/<output-digest>-<fingerprint>.json

Disciplines carried over from the in-memory tier (PR 5):

* **Atomic write-rename** — entries are written to a temp file in the
  same directory and ``os.replace``d into place, so a reader never sees
  a half-written entry and concurrent writers of the same key simply
  last-write-win with identical content.
* **Checksum-verified reads** — every entry embeds the canonical
  payload checksum of :func:`repro.flow.cache._entry_checksum`
  (computed over the *reconstructed* objects, so it also proves the
  JSON round-trip was faithful).  A mismatch, unparsable file or alien
  schema is **quarantined**: the file is moved aside, counted in
  ``cache.corruptions``/``cache.disk.corruptions``, and reported as a
  miss so the caller transparently re-synthesizes.
* **LRU size-budgeted GC** — hits refresh the entry's mtime; when the
  store grows past ``max_bytes``, :meth:`DiskCacheTier.gc` removes the
  stalest entries first until under budget (checked opportunistically
  after stores).

Expressions are serialized as an explicit node list with DAG sharing
(not pickle): deterministic bytes, no arbitrary-code-execution surface
when a served cache directory is writable by others, and immune to the
lazily-cached ``hash`` in expression ``__dict__`` that makes pickles of
equal entries differ.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

from repro.errors import CacheIntegrityError
from repro.expr import expression as ex
from repro.flow.cache import _Entry, _entry_checksum
from repro.flow.context import OutputReport
from repro.resilience import faultfs

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DISK_CACHE_SCHEMA_VERSION",
    "DiskCacheTier",
    "entry_from_doc",
    "entry_to_doc",
    "expr_from_obj",
    "expr_to_obj",
]

DISK_CACHE_SCHEMA_VERSION = 1

#: Default size budget: generous for a benchmark suite (entries are a
#: few KiB each), small enough to never surprise a laptop.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


# -- expression (de)serialization --------------------------------------------

_NARY_KINDS = {"A": ex.And, "O": ex.Or, "X": ex.Xor}
_KIND_BY_TYPE = {ex.And: "A", ex.Or: "O", ex.Xor: "X"}


def expr_to_obj(expr: ex.Expr) -> dict:
    """Serialize an expression DAG to a JSON-safe node list.

    Nodes are emitted children-first, referenced by index, with shared
    subtrees emitted once — the on-disk mirror of the canonical walk in
    :func:`repro.flow.cache._hash_expr`.
    """
    nodes: list[list] = []
    memo: dict[int, int] = {}

    def walk(node: ex.Expr) -> int:
        index = memo.get(id(node))
        if index is not None:
            return index
        if isinstance(node, ex.Const):
            record: list = ["C", 1 if node.value else 0]
        elif isinstance(node, ex.Lit):
            record = ["L", node.var, 1 if node.negated else 0]
        elif isinstance(node, ex.Not):
            record = ["N", walk(node.arg)]
        else:
            kind = _KIND_BY_TYPE.get(type(node))
            if kind is None:
                raise TypeError(
                    f"cannot serialize expression node {type(node).__name__}"
                )
            record = [kind, [walk(child) for child in node.args]]
        nodes.append(record)
        index = len(nodes) - 1
        memo[id(node)] = index
        return index

    root = walk(expr)
    return {"nodes": nodes, "root": root}


def expr_from_obj(obj: dict) -> ex.Expr:
    """Rebuild an expression from :func:`expr_to_obj` output.

    Uses the raw node constructors (not the simplifying smart
    constructors) so the reconstructed tree is structurally identical
    to what was stored — which the entry checksum then proves.
    """
    built: list[ex.Expr] = []
    for record in obj["nodes"]:
        kind = record[0]
        if kind == "C":
            built.append(ex.TRUE if record[1] else ex.FALSE)
        elif kind == "L":
            built.append(ex.Lit(int(record[1]), bool(record[2])))
        elif kind == "N":
            built.append(ex.Not(built[record[1]]))
        else:
            cls = _NARY_KINDS[kind]
            built.append(cls(tuple(built[i] for i in record[1])))
    return built[obj["root"]]


# -- entry (de)serialization --------------------------------------------------


def entry_to_doc(key: str, entry: _Entry) -> dict:
    """The JSON document stored for one cache entry."""
    report = entry.report
    stats = report.reduction_stats
    return {
        "schema": DISK_CACHE_SCHEMA_VERSION,
        "key": key,
        "checksum": entry.checksum,
        "pipeline_seconds": entry.pipeline_seconds,
        "variants": [
            [tag, expr_to_obj(expr)] for tag, expr in entry.variants
        ],
        "report": {
            "name": report.name,
            "polarity": report.polarity,
            "num_fprm_cubes": report.num_fprm_cubes,
            "method": report.method,
            "gates_before_reduction": report.gates_before_reduction,
            "gates_after_reduction": report.gates_after_reduction,
            "reduction_stats": (
                None if stats is None else {
                    field: getattr(stats, field)
                    for field in stats.__dataclass_fields__
                }
            ),
            "degraded": list(report.degraded),
        },
    }


def entry_from_doc(doc: dict) -> tuple[str, _Entry]:
    """Rebuild ``(key, entry)``; raises on any structural problem."""
    from repro.core.redundancy import ReductionStats

    raw_report = doc["report"]
    raw_stats = raw_report["reduction_stats"]
    report = OutputReport(
        name=raw_report["name"],
        polarity=int(raw_report["polarity"]),
        num_fprm_cubes=(
            None if raw_report["num_fprm_cubes"] is None
            else int(raw_report["num_fprm_cubes"])
        ),
        method=raw_report["method"],
        gates_before_reduction=int(raw_report["gates_before_reduction"]),
        gates_after_reduction=int(raw_report["gates_after_reduction"]),
        reduction_stats=(
            None if raw_stats is None else ReductionStats(**raw_stats)
        ),
        degraded=tuple(raw_report["degraded"]),
    )
    entry = _Entry(
        variants=[
            (tag, expr_from_obj(obj)) for tag, obj in doc["variants"]
        ],
        report=report,
        pipeline_seconds=float(doc["pipeline_seconds"]),
        checksum=doc["checksum"],
    )
    return doc["key"], entry


# -- the tier ------------------------------------------------------------------


class DiskCacheTier:
    """Cross-process persistent tier of the per-output result cache.

    Attach one to the in-memory cache via
    :meth:`repro.flow.cache.ResultCache.attach_disk` for a two-level
    memory→disk lookup, or use it directly (the ``repro-cache`` CLI
    does) for ``stats``/``verify``/``gc``/``purge`` maintenance.
    """

    def __init__(self, directory: str | os.PathLike,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.directory = pathlib.Path(directory)
        self.entries_dir = self.directory / "entries"
        self.quarantine_dir = self.directory / "quarantine"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # Approximate store size, maintained incrementally so stores do
        # not walk the directory; refreshed from disk lazily and by gc().
        self._approx_bytes: int | None = None
        #: Stores lost to OS faults (ENOSPC, EIO, ...), for the serve
        #: health monitor.
        self.write_errors = 0

    # -- paths ------------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        digest, _, fingerprint = key.partition("/")
        return self.entries_dir / digest / f"{fingerprint}.json"

    def _key_for(self, path: pathlib.Path) -> str:
        return f"{path.parent.name}/{path.stem}"

    def _entry_paths(self) -> list[pathlib.Path]:
        return [
            path
            for path in self.entries_dir.glob("*/*.json")
            if path.is_file()
        ]

    # -- metrics ----------------------------------------------------------

    @staticmethod
    def _metric(name: str, help: str = ""):
        from repro.obs.metrics import get_metrics_registry

        return get_metrics_registry().counter(name, help)

    def _record_corruption(self) -> None:
        self._metric(
            "cache.corruptions",
            "result-cache entries quarantined by checksum verification",
        ).inc()
        self._metric(
            "cache.disk.corruptions",
            "disk-cache entries quarantined at read",
        ).inc()

    # -- lookup / store ----------------------------------------------------

    def load_entry(self, key: str) -> _Entry | None:
        """Verified entry for ``key``, or ``None`` (miss / quarantined).

        A present-but-unreadable or checksum-failing file is moved to
        the quarantine directory and counted; the caller sees a plain
        miss and recomputes — corruption costs time, never correctness.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self._metric("cache.disk.misses", "disk-cache misses").inc()
            return None
        entry: _Entry | None = None
        try:
            doc = json.loads(text)
            if doc.get("schema") != DISK_CACHE_SCHEMA_VERSION:
                raise ValueError(f"unknown schema {doc.get('schema')!r}")
            stored_key, entry = entry_from_doc(doc)
            if stored_key != key:
                raise ValueError("entry key does not match its path")
            if _entry_checksum(entry) != entry.checksum:
                raise ValueError("payload checksum mismatch")
        except (KeyError, IndexError, TypeError, ValueError):
            self._quarantine(path)
            self._metric("cache.disk.misses", "disk-cache misses").inc()
            return None
        try:
            os.utime(path)  # refresh LRU recency for gc()
        except OSError:
            pass
        self._metric("cache.disk.hits", "disk-cache hits").inc()
        return entry

    def store_entry(self, key: str, entry: _Entry) -> bool:
        """Persist one checksummed entry atomically (write-rename).

        Best-effort by contract: every store is attempted, and one that
        fails at the OS level (``ENOSPC``, ``EIO``, an injected fault) is
        *absorbed* — counted in ``cache.disk.errors`` and
        :attr:`write_errors` — and the method returns ``False``; the
        caller's request already has its result in memory and must not
        fail because persistence did.  A lost store costs only a later
        recompute.
        """
        path = self.path_for(key)
        payload = json.dumps(entry_to_doc(key, entry), separators=(",", ":"))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic temp+fsync+rename through the injectable faultfs
            # primitives: a reader never sees a half-written entry, and
            # concurrent writers of one key last-write-win with
            # identical content.
            faultfs.atomic_write_text(str(path), payload)
        except OSError:
            with self._lock:  # serve workers store from several threads
                self.write_errors += 1
            self._metric(
                "cache.disk.errors",
                "disk-cache writes that failed at the OS level",
            ).inc()
            return False
        self._metric("cache.disk.puts", "disk-cache stores").inc()
        with self._lock:
            if self._approx_bytes is not None:
                self._approx_bytes += len(payload)
            over = (
                self._approx_bytes is not None
                and self._approx_bytes > self.max_bytes
            )
        if over:
            self.gc()
        elif self._approx_bytes is None:
            self._refresh_size()
        return True

    def _refresh_size(self) -> int:
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        with self._lock:
            self._approx_bytes = total
        if total > self.max_bytes:
            self.gc()
        return total

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a bad entry aside (never delete evidence) and count it."""
        target = self.quarantine_dir / f"{path.parent.name}-{path.name}"
        try:
            faultfs.fs_replace(str(path), str(target))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._record_corruption()

    # -- maintenance -------------------------------------------------------

    def gc(self, max_bytes: int | None = None) -> list[str]:
        """Evict least-recently-used entries until under the budget.

        Returns the keys removed.  Recency is the file mtime, which
        :meth:`load_entry` refreshes on every verified hit.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        stamped: list[tuple[float, int, pathlib.Path]] = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed: list[str] = []
        for mtime, size, path in sorted(stamped):
            if total <= budget:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed.append(self._key_for(path))
            self._metric("cache.disk.evictions",
                         "disk-cache entries removed by gc").inc()
        with self._lock:
            self._approx_bytes = total
        return removed

    def purge(self) -> int:
        """Remove every entry (and quarantined file); returns the count."""
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for path in self.quarantine_dir.glob("*.json"):
            try:
                os.unlink(path)
            except OSError:
                pass
        with self._lock:
            self._approx_bytes = 0
        return removed

    def verify_all(self) -> int:
        """Strict integrity pass over every stored entry.

        Quarantines corrupt entries exactly like :meth:`load_entry`,
        then raises :class:`~repro.errors.CacheIntegrityError` naming
        them; returns the number checked when all are sound.
        """
        corrupt: list[str] = []
        checked = 0
        for path in sorted(self._entry_paths()):
            checked += 1
            key = self._key_for(path)
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if doc.get("schema") != DISK_CACHE_SCHEMA_VERSION:
                    raise ValueError("schema")
                stored_key, entry = entry_from_doc(doc)
                if stored_key != key:
                    raise ValueError("key")
                if _entry_checksum(entry) != entry.checksum:
                    raise ValueError("checksum")
            except (OSError, KeyError, IndexError, TypeError, ValueError):
                self._quarantine(path)
                corrupt.append(key)
        if corrupt:
            raise CacheIntegrityError(
                f"{len(corrupt)} corrupt disk-cache entr"
                f"{'y' if len(corrupt) == 1 else 'ies'}: "
                + ", ".join(key[:16] for key in corrupt)
            )
        return checked

    def scan(self) -> dict:
        """Inventory for ``repro-cache stats``: counts and sizes."""
        entries = 0
        total = 0
        digests = set()
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
            digests.add(path.parent.name)
        quarantined = sum(1 for _ in self.quarantine_dir.glob("*.json"))
        return {
            "directory": str(self.directory),
            "entries": entries,
            "distinct_functions": len(digests),
            "bytes": total,
            "max_bytes": self.max_bytes,
            "quarantined": quarantined,
        }
