"""Intentional fault injection — proof the harness catches real bugs.

A fuzzing subsystem that has never caught anything is unfalsifiable; the
faults here re-introduce realistic bug classes behind a context manager
so the test suite (and the nightly CI lane) can assert the differential
oracles detect them and the shrinker reduces them to minimal
reproducers:

``drop-fprm-cube``
    The FPRM derivation silently loses its last cube — the classic
    off-by-one in a spectrum-to-cube-list walk.
``unguarded-xor-to-or``
    Redundancy removal rewrites an XOR gate to OR without checking the
    relevance of the (1,1) input pattern — i.e. the paper's Table 1
    reduction applied with its guard disabled.
``cache-key-collision``
    The result-cache key stops hashing the output's function and keys on
    width alone, so distinct outputs of one run can alias.

Injection patches the *importing* module's bindings (``repro.flow.passes``
and ``repro.core.synthesis`` import these names directly).  The pass
faults reach the in-process flow, which is what the fault self-tests
exercise; the key fault reaches pooled runs too, since the synthesis
driver computes every cache key itself.  The run faults below patch
the options every run starts with (``FprmSynthesizer.run``), since the
options are the only source of the budget and the watchdog window.

The faults above are *detected* faults: the campaign must fail under
them (``--expect-failure``).  The resilience faults below are
*recovered* faults — they attack the infrastructure, not the
mathematics, and the campaign must **pass** under them, proving the
recovery paths end in spec-equivalent networks:

``worker-crash``
    Every process-pool worker dies via ``os._exit(1)``; the crash-
    isolated pool breaks, and each output without a pool result runs
    once on the in-process serial path (the origin-pid guard keeps that
    path clean).
``worker-hang``
    Every pool worker sleeps past the per-output watchdog window, which
    this fault sets to 0.5 s on every run; the pool is killed and the
    outputs recovered serially.
``cache-corrupt-entry``
    Every ``ResultCache.store`` tampers with the entry after its
    checksum is taken; lookups must quarantine and recompute.
``budget-starvation``
    Every run gets ``budget_seconds=0``, forcing the whole
    effort-degradation ladder; results must stay spec-equivalent.

The worker faults set the ``REPRO_FAULT_WORKER_*`` hooks of
:mod:`repro.flow.parallel`, which must cross into the pool's processes.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator

from repro.core import tree as tr
from repro.core.redundancy import RedundancyRemover
from repro.expr.esop import FprmForm

__all__ = ["FAULTS", "RECOVERED_FAULTS", "inject_fault"]


@contextlib.contextmanager
def _fault_drop_fprm_cube() -> Iterator[None]:
    from repro.flow import passes

    original = passes.fprm_from_table

    def faulty(table, polarity):
        form = original(table, polarity)
        if form.num_cubes >= 2:
            return FprmForm(form.n, form.polarity, form.cubes[:-1])
        return form

    passes.fprm_from_table = faulty
    try:
        yield
    finally:
        passes.fprm_from_table = original


@contextlib.contextmanager
def _fault_unguarded_xor_to_or() -> Iterator[None]:
    from repro.flow import passes

    class _UnguardedRemover(RedundancyRemover):
        def run(self) -> tr.TNode:
            root = super().run()
            for node in root.iter_nodes():
                if node.op == tr.XOR:
                    node.op = tr.OR
                    break
            return root

    original = passes.RedundancyRemover
    passes.RedundancyRemover = _UnguardedRemover
    try:
        yield
    finally:
        passes.RedundancyRemover = original


@contextlib.contextmanager
def _fault_cache_key_collision() -> Iterator[None]:
    from repro.core import synthesis

    original = synthesis.cache_key

    def faulty(output, options):
        return f"width:{output.width}"

    synthesis.cache_key = faulty
    try:
        yield
    finally:
        synthesis.cache_key = original


@contextlib.contextmanager
def _set_env(key: str, value: str) -> Iterator[None]:
    """Temporarily set one environment variable."""
    saved = os.environ.get(key)
    os.environ[key] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = saved


@contextlib.contextmanager
def _run_with(**changes) -> Iterator[None]:
    """Start every synthesis run with ``changes`` applied to its options."""
    from repro.core.synthesis import FprmSynthesizer

    original = FprmSynthesizer.run

    def faulty(self, spec):
        return original(FprmSynthesizer(self.options.replace(**changes)), spec)

    FprmSynthesizer.run = faulty
    try:
        yield
    finally:
        FprmSynthesizer.run = original


@contextlib.contextmanager
def _fault_worker_crash() -> Iterator[None]:
    from repro.flow.parallel import CRASH_FAULT_ENV

    # The origin pid is this process: the fault fires only in forked
    # pool workers, so the in-process recovery path stays clean.
    with _set_env(CRASH_FAULT_ENV, f"{os.getpid()}:*"):
        yield


@contextlib.contextmanager
def _fault_worker_hang() -> Iterator[None]:
    from repro.flow.parallel import HANG_FAULT_ENV

    # Sleep far past the watchdog window this fault also arms; the pool
    # must kill the hung workers and recover the outputs serially.
    with _set_env(HANG_FAULT_ENV, f"{os.getpid()}:*:30"):
        with _run_with(timeout_per_output=0.5):
            yield


@contextlib.contextmanager
def _fault_cache_corrupt_entry() -> Iterator[None]:
    from repro.flow.cache import ResultCache

    original = ResultCache.store

    def faulty(self, key, run):
        original(self, key, run)
        entry = self._entries.get(key)
        if entry is not None and entry.variants:
            # Tamper *after* the checksum is taken: a stale duplicate
            # variant the next lookup must quarantine.
            entry.variants.append(entry.variants[0])

    ResultCache.store = faulty
    try:
        yield
    finally:
        ResultCache.store = original


@contextlib.contextmanager
def _fault_budget_starvation() -> Iterator[None]:
    with _run_with(budget_seconds=0.0):
        yield


FAULTS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "drop-fprm-cube": _fault_drop_fprm_cube,
    "unguarded-xor-to-or": _fault_unguarded_xor_to_or,
    "cache-key-collision": _fault_cache_key_collision,
    "worker-crash": _fault_worker_crash,
    "worker-hang": _fault_worker_hang,
    "cache-corrupt-entry": _fault_cache_corrupt_entry,
    "budget-starvation": _fault_budget_starvation,
}

#: Faults the campaign must *survive* (exit 0, no findings): they attack
#: the infrastructure — workers, cache bytes, wall-clock — and the
#: resilience layer is expected to recover spec-equivalent results.
#: The remaining (detected) faults pair with ``--expect-failure``.
RECOVERED_FAULTS = frozenset({
    "worker-crash",
    "worker-hang",
    "cache-corrupt-entry",
    "budget-starvation",
})


@contextlib.contextmanager
def inject_fault(name: str | None) -> Iterator[None]:
    """Activate one named fault for the duration of the block.

    ``None`` is a no-op, so callers can thread an optional fault name
    straight through: ``with inject_fault(args.inject_fault): ...``.
    """
    if name is None:
        yield
        return
    if name not in FAULTS:
        raise ValueError(f"unknown fault {name!r}; known: {', '.join(sorted(FAULTS))}")
    with FAULTS[name]():
        yield
