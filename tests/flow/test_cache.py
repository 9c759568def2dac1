"""The content-addressed per-output result cache."""

import gc

import pytest

from repro.circuits import get
from repro.core.options import FactorMethod, SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.expr.cover import Cover
from repro.flow.cache import (
    ResultCache,
    cache_key,
    get_result_cache,
    output_digest,
)
from repro.flow.passes import run_output
from repro.network.blif import write_blif
from repro.network.verify import equivalent_to_spec
from repro.spec import CircuitSpec, OutputSpec
from repro.truth.table import TruthTable

_TIMING_ROUNDS = 5


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    yield
    get_result_cache().clear()


def test_cache_hit_returns_equivalent_network():
    spec = get("z4ml")
    options = SynthesisOptions(cache=True)
    first = synthesize_fprm(spec, options)
    assert first.trace.cache_hits == 0
    assert first.trace.cache_misses == spec.num_outputs

    second = synthesize_fprm(spec, options)
    assert second.trace.cache_hits == spec.num_outputs
    assert second.trace.cache_misses == 0
    assert second.verify
    assert second.two_input_gates == first.two_input_gates
    assert write_blif(second.network) == write_blif(first.network)
    assert equivalent_to_spec(second.network, spec)
    # Hits are observable per output via the cache-lookup records.
    lookups = second.trace.records_for("cache-lookup")
    assert len(lookups) == spec.num_outputs
    assert all(record.details["hit"] for record in lookups)


def test_acceptance_cached_rerun_is_faster():
    """Acceptance: identical second run reports hits and lower wall-time.

    Wall time is compared best-of-N with the garbage collector off, as
    ``timeit`` does: a cached z4ml run takes a few milliseconds, so one
    scheduler stall, or one collection of the whole test session's heap
    (up to about 0.1 s in a full run), must not decide the comparison.
    """
    spec = get("z4ml")
    options = SynthesisOptions(cache=True)
    fresh_runs, cached_runs = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_TIMING_ROUNDS):
            get_result_cache().clear()
            fresh_runs.append(synthesize_fprm(spec, options))
            cached_runs.append(synthesize_fprm(spec, options))
    finally:
        if gc_was_enabled:
            gc.enable()
    for cached in cached_runs:
        assert cached.trace.cache_hits == spec.num_outputs
    assert min(run.trace.seconds for run in cached_runs) < \
        min(run.trace.seconds for run in fresh_runs)
    assert min(run.seconds for run in cached_runs) < \
        min(run.seconds for run in fresh_runs)


def test_cached_reports_stable_across_runs():
    # The resub-merge pass appends to report.method; the cache must hand
    # out fresh copies so a second run reproduces the first exactly.
    spec = get("z4ml")
    options = SynthesisOptions(cache=True)
    first = synthesize_fprm(spec, options)
    second = synthesize_fprm(spec, options)
    assert [r.method for r in second.reports] == \
        [r.method for r in first.reports]
    assert [r.name for r in second.reports] == \
        [r.name for r in first.reports]


def test_key_stable_under_lazy_table_materialization():
    cover = Cover.from_strings(["1-0", "011"])
    output = OutputSpec("f", (0, 1, 2), cover=cover)
    options = SynthesisOptions()
    before = cache_key(output, options)
    output.local_table()  # materializes output.table as a side effect
    assert cache_key(output, options) == before


def test_key_ignores_name_and_nonsemantic_options():
    table = TruthTable.from_function(3, lambda m: int(m.bit_count() == 2))
    a = OutputSpec("f", (0, 1, 2), table=table)
    b = OutputSpec("g", (2, 0, 1), table=table)  # name/support differ
    base = SynthesisOptions()
    assert output_digest(a) == output_digest(b)
    assert cache_key(a, base) == cache_key(b, base)
    for nonsemantic in (
        base.replace(verify=False),
        base.replace(jobs=4),
        base.replace(trace=False),
        base.replace(cache=True),
    ):
        assert cache_key(a, nonsemantic) == cache_key(a, base)
    semantic = base.replace(factor_method=FactorMethod.OFDD)
    assert cache_key(a, semantic) != cache_key(a, base)
    wider = OutputSpec("f", (0, 1), table=TruthTable.from_function(
        2, lambda m: int(m == 3)))
    assert output_digest(wider) != output_digest(a)


def test_duplicate_outputs_share_one_entry():
    table = TruthTable.from_function(3, lambda m: int(m.bit_count() >= 2))
    spec = CircuitSpec(
        name="twins", num_inputs=3,
        outputs=[
            OutputSpec("f", (0, 1, 2), table=table),
            OutputSpec("g", (0, 1, 2), table=table),
        ],
    )
    options = SynthesisOptions(cache=True)
    first = synthesize_fprm(spec, options)
    assert first.verify
    second = synthesize_fprm(spec, options)
    assert second.trace.cache_hits == 2
    # Content-addressed: both outputs map onto the same entry, and the
    # report names are rewritten per requesting output.
    assert [r.name for r in second.reports] == ["f", "g"]
    assert second.two_input_gates == first.two_input_gates


def test_cache_eviction_and_stats():
    cache = ResultCache(max_entries=1)
    spec = get("rd53")
    options = SynthesisOptions()
    runs = [(cache_key(output, options), run_output(output, options))
            for output in spec.outputs[:2]]
    cache.store(*runs[0])
    cache.store(*runs[1])
    assert len(cache) == 1
    assert cache.stats.puts == 2
    assert cache.stats.evictions == 1
    assert cache.lookup(runs[0][0], spec.outputs[0]) is None  # evicted
    hit = cache.lookup(runs[1][0], spec.outputs[1])
    assert hit is not None and hit.cached == "memory"
    # The entry's saved seconds are the stored run's own.
    assert hit.seconds == runs[1][1].seconds > 0
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_cache_disabled_by_default():
    result = synthesize_fprm(get("rd53"))
    assert result.trace.cache_enabled is False
    assert result.trace.cache_hits == 0
    assert len(get_result_cache()) == 0


# -- self-healing ------------------------------------------------------------


def _one_run(cache, spec, index=0, options=None):
    options = options or SynthesisOptions()
    output = spec.outputs[index]
    key = cache_key(output, options)
    cache.store(key, run_output(output, options))
    return key, output


def test_corrupt_entry_is_quarantined_and_recomputed():
    from repro.obs.metrics import get_metrics_registry

    cache = ResultCache()
    spec = get("rd53")
    key, output = _one_run(cache, spec)
    counter = get_metrics_registry().counter(
        "cache.corruptions",
        "result-cache entries quarantined by checksum verification",
    )
    before = counter.value

    # Simulate bit-rot / an aliasing bug: mutate the stored payload
    # behind the checksum's back.
    cache._entries[key].variants.append(cache._entries[key].variants[0])
    assert cache.lookup(key, output) is None  # quarantined, not served
    assert cache.stats.corruptions == 1
    assert key not in cache._entries
    assert counter.value == before + 1

    # Self-healing: a recompute-and-store round trip serves hits again.
    key2, _ = _one_run(cache, spec)
    assert key2 == key
    hit = cache.lookup(key, output)
    assert hit is not None and hit.cached
    assert cache.stats.corruptions == 1  # no new corruption


def test_verify_all_is_strict_about_corruption():
    from repro.errors import CacheIntegrityError

    cache = ResultCache()
    spec = get("rd53")
    key, _ = _one_run(cache, spec)
    _one_run(cache, spec, index=1)
    assert cache.verify_all() == 2  # sound cache: count checked

    cache._entries[key].report.gates_after_reduction = 0
    with pytest.raises(CacheIntegrityError, match=key[:16]):
        cache.verify_all()
    assert key not in cache._entries  # still quarantined
    assert cache.stats.corruptions == 1
    assert cache.verify_all() == 1  # the survivor is sound


def test_store_copies_variants_against_caller_mutation():
    cache = ResultCache()
    spec = get("rd53")
    options = SynthesisOptions()
    output = spec.outputs[0]
    run = run_output(output, options)
    key = cache_key(output, options)
    cache.store(key, run)
    stored_len = len(run.variants)

    # The caller keeps mutating its own run after the store; an aliased
    # entry would flunk its own checksum on the next lookup.
    run.variants.append(run.variants[0])
    hit = cache.lookup(key, output)
    assert hit is not None and hit.cached
    assert len(hit.variants) == stored_len
    assert cache.stats.corruptions == 0

    # And lookups hand out fresh lists too: mutating a hit cannot
    # corrupt the entry for the next caller.
    hit.variants.clear()
    again = cache.lookup(key, output)
    assert again is not None and len(again.variants) == stored_len
    assert cache.stats.corruptions == 0


def test_end_to_end_corruption_recomputes_equivalent_network():
    spec = get("z4ml")
    options = SynthesisOptions(cache=True)
    fresh = synthesize_fprm(spec, options)

    cache = get_result_cache()
    for entry in cache._entries.values():
        entry.variants.append(entry.variants[0])

    healed = synthesize_fprm(spec, options)
    assert healed.trace.cache_hits == 0
    assert healed.trace.cache_misses == spec.num_outputs
    assert cache.stats.corruptions == spec.num_outputs
    assert healed.verify
    assert write_blif(healed.network) == write_blif(fresh.network)
