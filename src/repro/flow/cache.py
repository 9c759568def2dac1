"""Content-addressed per-output result cache.

Repeated harness runs (ablation sweeps, the Table 2 benchmarks, a server
answering the same circuit twice) re-synthesize identical output
functions over and over.  The per-output pipeline is a pure function of
(local function representation, semantic options), so its result —
the best-first variant list plus the report — can be cached under a
digest of exactly those two things.

Keys deliberately ignore the output *name* and the global support
mapping: two outputs with the same local behaviour share one entry, and
the caller re-applies its own ``var_map`` when building the network.
They also ignore the non-semantic knobs (``verify``, ``jobs``,
``trace``, ``cache`` itself) via
:meth:`~repro.core.options.SynthesisOptions.semantic_fingerprint`.

The digest always uses the output's *original* representation (cover,
then expression, then dense table) so that the lazy
``OutputSpec.local_table()`` materialization between two runs cannot
change the key.

Self-healing: every entry is checksummed over a canonical serialization
of its payload at store time and re-verified on lookup.  An entry whose
bytes no longer match — an aliasing bug mutating a shared variant list,
a fault-injection test tampering on purpose — is *quarantined*: dropped
from the cache, counted in ``CacheStats.corruptions`` and the
``cache.corruptions`` metric, and reported as a miss so the caller
simply recomputes.  A corrupt cache can therefore cost time but never
correctness.  :meth:`ResultCache.verify_all` offers the strict flavour
for tests and debugging, raising
:class:`~repro.errors.CacheIntegrityError` instead of healing silently.

Two-level: attaching a :class:`~repro.flow.disk_cache.DiskCacheTier`
(:meth:`ResultCache.attach_disk` — the engine layer does this when a
cache directory is configured) makes lookups fall through memory to a
shared on-disk store with the same key scheme and the same
checksum/quarantine discipline, and makes stores write through — so a
cold process starts warm from every previous run on the machine.

The synthesis driver (:mod:`repro.core.synthesis`) is the one client,
in serial and pooled runs alike; pool workers never touch the cache.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace

from repro.core.options import SynthesisOptions
from repro.errors import CacheIntegrityError
from repro.expr import expression as ex
from repro.flow.context import OutputReport, OutputRun
from repro.obs.manifest import options_fingerprint
from repro.spec import OutputSpec


def _hash_expr(expr: ex.Expr, h) -> None:
    """Feed a canonical DAG-aware serialization of ``expr`` into ``h``."""
    memo: dict[int, int] = {}

    def walk(node: ex.Expr) -> None:
        key = id(node)
        index = memo.get(key)
        if index is not None:
            h.update(b"@%d;" % index)
            return
        memo[key] = len(memo)
        if isinstance(node, ex.Const):
            h.update(b"C%d;" % int(node.value))
        elif isinstance(node, ex.Lit):
            h.update(b"L%d.%d;" % (node.var, int(node.negated)))
        else:
            h.update(type(node).__name__.encode("ascii"))
            h.update(b"(")
            for child in node.children():
                walk(child)
            h.update(b");")

    walk(expr)


def output_digest(output: OutputSpec) -> str:
    """Content digest of one output's local function representation."""
    h = hashlib.sha256()
    h.update(b"w%d;" % output.width)
    if output.cover is not None:
        h.update(b"cover;")
        for cube in output.cover:
            h.update(b"%x,%x;" % (cube.pos, cube.neg))
    elif output.expr is not None:
        h.update(b"expr;")
        _hash_expr(output.expr, h)
    else:
        assert output.table is not None
        h.update(b"table;")
        h.update(output.table.bits.tobytes())
    return h.hexdigest()


def cache_key(output: OutputSpec, options: SynthesisOptions) -> str:
    """The full cache key: output content digest + options fingerprint."""
    return f"{output_digest(output)}/{options_fingerprint(options)}"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Entries that failed checksum verification and were quarantined.
    corruptions: int = 0
    #: Misses in memory that a verified disk-tier entry answered.
    disk_hits: int = 0


@dataclass
class _Entry:
    variants: list
    report: OutputReport
    pipeline_seconds: float
    checksum: str = ""


def _entry_checksum(entry: _Entry) -> str:
    """Canonical content digest of one entry's payload.

    Deliberately *not* ``pickle``-based: expression objects cache their
    hash lazily in ``__dict__``, so raw pickles of the same entry differ
    depending on whether ``hash()`` ran in between — the canonical
    DAG serialization of :func:`_hash_expr` is stable.  Any structural
    change to a variant expression, the variant list itself, or a report
    field changes the digest.
    """
    h = hashlib.sha256()
    for tag, expr in entry.variants:
        h.update(tag.encode("utf-8"))
        h.update(b"=")
        _hash_expr(expr, h)
        h.update(b"|")
    h.update(repr(asdict(entry.report)).encode("utf-8"))
    h.update(b"|%r" % (entry.pipeline_seconds,))
    return h.hexdigest()


class ResultCache:
    """A bounded, thread-safe, in-process per-output result cache.

    Optionally two-level: :meth:`attach_disk` adds a persistent
    :class:`~repro.flow.disk_cache.DiskCacheTier` consulted on memory
    misses (verified entries are promoted into memory) and written
    through on stores — so every process and every run on the machine
    shares results under the same content-addressed keys.
    """

    def __init__(self, max_entries: int = 2048):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self.stats = CacheStats()
        #: Optional persistent tier (``DiskCacheTier``-shaped: needs
        #: ``load_entry``/``store_entry``); ``None`` = memory only.
        self.disk = None

    def __len__(self) -> int:
        return len(self._entries)

    def attach_disk(self, tier) -> None:
        """Install ``tier`` as the persistent second level."""
        self.disk = tier

    def detach_disk(self) -> None:
        self.disk = None

    def lookup(self, key: str, output: OutputSpec) -> OutputRun | None:
        """Return a fresh :class:`OutputRun` for a hit, else ``None``.

        The report is copied (the resub-merge pass may append to its
        ``method`` tag) and renamed after the *requesting* output, since
        keys are content-addressed rather than name-addressed.

        Every hit is checksum-verified first; a corrupt entry is
        quarantined (dropped, counted) and treated as a miss, so the
        caller transparently recomputes it — the self-healing path.
        A memory miss (including a quarantined memory entry) falls
        through to the disk tier when one is attached; a verified disk
        entry is promoted into memory and served like a hit; its
        ``cached`` names the tier.
        """
        tier = "memory"
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if _entry_checksum(entry) != entry.checksum:
                    del self._entries[key]
                    self.stats.corruptions += 1
                    self._record_corruption(key)
                    entry = None
                else:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    self._count("cache.memory.hits",
                                "memory-tier result-cache hits")
        if entry is None and self.disk is not None:
            entry = self.disk.load_entry(key)
            if entry is not None:
                tier = "disk"
                with self._lock:
                    self.stats.disk_hits += 1
                    self._insert(key, entry)
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            self._count("cache.memory.misses",
                        "result-cache misses (both tiers)")
            return None
        return OutputRun(
            variants=list(entry.variants),
            report=replace(entry.report, name=output.name),
            seconds=entry.pipeline_seconds,
            cached=tier,
        )

    def _insert(self, key: str, entry: _Entry) -> None:
        """Put an entry into the memory map (caller holds the lock)."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def store(self, key: str, run: OutputRun) -> None:
        """Insert one pipeline result (defensive copies, checksummed).

        Both the variant list and the report are copied: the caller (or
        the resub-merge pass after it) keeps mutating its own ``run``,
        and a stored entry aliasing that list would silently change
        under every future lookup of the same key.  With a disk tier
        attached the entry is also written through, atomically, so
        future processes start warm.
        """
        entry = _Entry(
            variants=list(run.variants),
            report=replace(run.report),
            pipeline_seconds=run.seconds,
        )
        entry.checksum = _entry_checksum(entry)
        with self._lock:
            self.stats.puts += 1
            self._insert(key, entry)
        if self.disk is not None:
            self.disk.store_entry(key, entry)

    def verify_all(self) -> int:
        """Strict integrity pass over every entry.

        Quarantines corrupt entries like :meth:`lookup` would, then
        raises :class:`~repro.errors.CacheIntegrityError` naming them —
        for tests and debugging sessions that want corruption loud
        rather than healed.  Returns the number of entries checked when
        all of them are sound.
        """
        corrupt: list[str] = []
        with self._lock:
            checked = len(self._entries)
            for key, entry in list(self._entries.items()):
                if _entry_checksum(entry) != entry.checksum:
                    del self._entries[key]
                    self.stats.corruptions += 1
                    self._record_corruption(key)
                    corrupt.append(key)
        if corrupt:
            raise CacheIntegrityError(
                f"{len(corrupt)} corrupt cache entr"
                f"{'y' if len(corrupt) == 1 else 'ies'}: "
                + ", ".join(key[:16] for key in corrupt)
            )
        return checked

    @staticmethod
    def _count(name: str, help: str) -> None:
        """Bump a registry counter (hit/miss traffic for /metrics)."""
        from repro.obs.metrics import get_metrics_registry

        get_metrics_registry().counter(name, help).inc()

    @staticmethod
    def _record_corruption(key: str) -> None:
        """Count a quarantined entry in the global metrics registry."""
        from repro.obs.metrics import get_metrics_registry

        get_metrics_registry().counter(
            "cache.corruptions",
            "result-cache entries quarantined by checksum verification",
        ).inc()

    def clear(self) -> None:
        """Drop every memory entry and reset stats.

        The attached disk tier (if any) is deliberately untouched — it
        is shared machine state; use ``repro-cache purge`` or
        :meth:`DiskCacheTier.purge` to clear it explicitly.
        """
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


_GLOBAL_CACHE = ResultCache()


def get_result_cache() -> ResultCache:
    """The process-wide cache used when ``SynthesisOptions.cache`` is on."""
    return _GLOBAL_CACHE
