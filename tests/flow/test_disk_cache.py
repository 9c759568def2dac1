"""The disk-backed cache tier: round trips, corruption, failed stores,
GC, CLI."""

import json
import os

import pytest

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.errors import CacheIntegrityError
from repro.expr import expression as ex
from repro.flow import cache_cli
from repro.flow.cache import get_result_cache
from repro.flow.disk_cache import (
    DiskCacheTier,
    entry_from_doc,
    entry_to_doc,
    expr_from_obj,
    expr_to_obj,
)
from repro.network.blif import write_blif
from repro.obs.metrics import get_metrics_registry
from repro.resilience import faultfs


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    get_result_cache().detach_disk()
    yield
    get_result_cache().clear()
    get_result_cache().detach_disk()


@pytest.fixture
def tier(tmp_path):
    return DiskCacheTier(tmp_path / "cache")


def _attach(tier):
    cache = get_result_cache()
    cache.attach_disk(tier)
    return cache


# -- expression serialization -------------------------------------------------


def test_expr_round_trip_preserves_structure():
    a, b, c = ex.Lit(0), ex.Lit(1, negated=True), ex.Lit(2)
    shared = ex.And((a, b))
    expr = ex.Xor((shared, ex.Or((shared, ex.Not(c))), ex.TRUE))
    rebuilt = expr_from_obj(expr_to_obj(expr))
    assert rebuilt == expr
    # DAG sharing survives: the shared AND is emitted once.
    obj = expr_to_obj(expr)
    ands = [node for node in obj["nodes"] if node[0] == "A"]
    assert len(ands) == 1


def test_expr_round_trip_is_deterministic():
    expr = ex.Or((ex.And((ex.Lit(0), ex.Lit(1))), ex.Not(ex.Lit(2))))
    assert json.dumps(expr_to_obj(expr)) == json.dumps(expr_to_obj(expr))


# -- entry round trip ---------------------------------------------------------


def _populate(tier, circuit="rd53"):
    """Synthesize through an attached tier; returns (spec, result)."""
    cache = _attach(tier)
    spec = get(circuit)
    result = synthesize_fprm(spec, SynthesisOptions(cache=True))
    assert cache.stats.disk_hits == 0
    return spec, result


def test_disk_entry_round_trips_bit_identical(tier):
    spec, first = _populate(tier)
    cache = get_result_cache()
    cache.clear()  # cold memory tier: next lookup must come from disk
    second = synthesize_fprm(spec, SynthesisOptions(cache=True))
    assert cache.stats.disk_hits == spec.num_outputs
    assert write_blif(second.network) == write_blif(first.network)
    assert second.two_input_gates == first.two_input_gates
    assert second.literals == first.literals


def test_disk_entry_doc_round_trip(tier):
    _populate(tier)
    paths = tier._entry_paths()
    assert paths
    doc = json.loads(paths[0].read_text())
    key, entry = entry_from_doc(doc)
    assert entry_to_doc(key, entry) == doc


def test_disk_hit_records_tier_in_trace(tier):
    spec, _ = _populate(tier)
    cache = get_result_cache()
    cache.clear()
    result = synthesize_fprm(spec, SynthesisOptions(cache=True))
    lookups = result.trace.records_for("cache-lookup")
    assert [r.details["tier"] for r in lookups if r.details["hit"]] \
        == ["disk"] * spec.num_outputs


def test_disk_hit_promotes_to_memory(tier):
    spec, _ = _populate(tier)
    cache = get_result_cache()
    cache.clear()
    synthesize_fprm(spec, SynthesisOptions(cache=True))
    first_disk_hits = cache.stats.disk_hits
    synthesize_fprm(spec, SynthesisOptions(cache=True))
    # Third run hits memory: the disk counter must not move again.
    assert cache.stats.disk_hits == first_disk_hits


# -- corruption ---------------------------------------------------------------


def _corrupt_one(tier):
    path = sorted(tier._entry_paths())[0]
    doc = json.loads(path.read_text())
    doc["report"]["gates_after_reduction"] += 1  # checksum now lies
    path.write_text(json.dumps(doc))
    return path


def test_corrupt_entry_quarantined_and_resynthesized(tier):
    spec, first = _populate(tier)
    cache = get_result_cache()
    registry = get_metrics_registry()
    before = registry.counter("cache.disk.corruptions", "").value
    corrupt_path = _corrupt_one(tier)

    cache.clear()
    second = synthesize_fprm(spec, SynthesisOptions(cache=True))
    # Transparent recovery: same answer, corruption counted, evidence kept.
    assert write_blif(second.network) == write_blif(first.network)
    assert registry.counter("cache.disk.corruptions", "").value == before + 1
    assert list(tier.quarantine_dir.glob("*.json"))
    # The re-synthesis wrote a fresh, sound entry back in its place.
    key = f"{corrupt_path.parent.name}/{corrupt_path.stem}"
    assert corrupt_path.exists()
    assert tier.load_entry(key) is not None


def test_unparsable_entry_quarantined(tier):
    _populate(tier)
    path = sorted(tier._entry_paths())[0]
    path.write_text("not json at all {")
    key = f"{path.parent.name}/{path.stem}"
    assert tier.load_entry(key) is None
    assert not path.exists()


def test_verify_all_raises_and_quarantines(tier):
    _populate(tier)
    checked = tier.verify_all()
    assert checked > 0
    _corrupt_one(tier)
    with pytest.raises(CacheIntegrityError):
        tier.verify_all()
    # The bad entry is gone; a re-verify is clean.
    assert tier.verify_all() == checked - 1


# -- failed stores ------------------------------------------------------------


@pytest.fixture
def disk_faults():
    """Install a faultfs plan for one test: ``disk_faults(spec)``."""
    yield lambda spec: faultfs.install(faultfs.parse_plan(spec))
    faultfs.clear()


def _stored(tier):
    """rd53's entries on disk; returns one ``(key, entry)``."""
    _populate(tier)
    get_result_cache().detach_disk()
    path = sorted(tier._entry_paths())[0]
    key = f"{path.parent.name}/{path.stem}"
    return key, tier.load_entry(key)


def test_failed_stores_count_and_return_false(tier, disk_faults):
    """On a dead disk every store is attempted, fails, is counted and
    returns False."""
    key, entry = _stored(tier)
    errors = get_metrics_registry().counter("cache.disk.errors")
    before = errors.value
    plan = disk_faults("write:enospc:path=entries")
    for _ in range(5):
        assert tier.store_entry(key, entry) is False
    assert plan.injected_total == 5
    assert tier.write_errors == 5
    assert errors.value == before + 5


def test_store_persists_once_the_disk_recovers(tier, disk_faults):
    """Three failed stores, then the fourth persists at once: no
    cooldown stands between a recovered disk and the next store."""
    key, entry = _stored(tier)
    puts = get_metrics_registry().counter("cache.disk.puts")
    disk_faults("write:enospc:path=entries:count=3")
    for _ in range(3):
        assert tier.store_entry(key, entry) is False
    before = puts.value
    assert tier.store_entry(key, entry) is True
    assert puts.value == before + 1
    assert tier.write_errors == 3
    assert tier.load_entry(key).checksum == entry.checksum


def test_reads_are_served_while_stores_fail(tier, disk_faults):
    key, entry = _stored(tier)
    disk_faults("write:enospc:path=entries")
    for _ in range(3):
        assert tier.store_entry(key, entry) is False
        loaded = tier.load_entry(key)
        assert loaded is not None
        assert loaded.checksum == entry.checksum


def test_synthesis_survives_a_dead_disk_memory_only(tier, disk_faults):
    """End to end: every disk write fails, results stay bit-identical."""
    cache = _attach(tier)
    disk_faults("write:enospc:path=entries")
    spec = get("rd53")
    first = synthesize_fprm(spec, SynthesisOptions(cache=True))
    assert tier._entry_paths() == []  # nothing persisted
    assert tier.write_errors == first.trace.cache_misses
    # The memory tier above the dead disk still serves hits.
    second = synthesize_fprm(spec, SynthesisOptions(cache=True))
    assert write_blif(second.network) == write_blif(first.network)
    assert cache.stats.hits > 0


# -- gc / purge ---------------------------------------------------------------


def test_gc_evicts_lru_down_to_budget(tier):
    _populate(tier, "rd53")
    _populate(tier, "z4ml")
    paths = tier._entry_paths()
    total = sum(p.stat().st_size for p in paths)
    # Age one entry far into the past; it must be evicted first.
    victim = sorted(paths)[0]
    os.utime(victim, (1, 1))
    removed = tier.gc(max_bytes=total - 1)
    assert f"{victim.parent.name}/{victim.stem}" in removed
    assert not victim.exists()


def test_purge_empties_store(tier):
    _populate(tier)
    assert tier.purge() > 0
    assert tier.scan()["entries"] == 0


def test_scan_inventory(tier):
    spec, _ = _populate(tier)
    info = tier.scan()
    assert info["entries"] == spec.num_outputs
    assert info["bytes"] > 0
    assert info["quarantined"] == 0


# -- repro-cache CLI ----------------------------------------------------------


def test_cache_cli_stats_verify_gc_purge(tier, capsys):
    _populate(tier)
    directory = str(tier.directory)

    assert cache_cli.main(["stats", "--cache-dir", directory]) == 0
    out = capsys.readouterr().out
    assert "entries:" in out and "quarantined:        0" in out

    assert cache_cli.main(["verify", "--cache-dir", directory]) == 0
    assert "0 corruptions" in capsys.readouterr().out

    _corrupt_one(tier)
    assert cache_cli.main(["verify", "--cache-dir", directory]) == 1
    err = capsys.readouterr().err
    assert "cache.corruptions" in err

    assert cache_cli.main(["gc", "--cache-dir", directory]) == 0
    capsys.readouterr()

    # purge refuses without --yes, then works with it
    assert cache_cli.main(["purge", "--cache-dir", directory]) == 2
    capsys.readouterr()
    assert cache_cli.main(
        ["purge", "--cache-dir", directory, "--yes"]
    ) == 0
    assert tier.scan()["entries"] == 0


def test_cache_cli_verify_fails_on_stale_quarantine(tier, capsys):
    """CI gates on the verify exit code: corruption a *reader* already
    quarantined must fail verify too, even though the live pass is
    clean — otherwise past corruption becomes invisible to the gate."""
    _populate(tier)
    path = _corrupt_one(tier)
    key = f"{path.parent.name}/{path.stem}"
    assert tier.load_entry(key) is None  # the read quarantines it
    assert list(tier.quarantine_dir.glob("*.json"))

    directory = str(tier.directory)
    assert cache_cli.main(["verify", "--cache-dir", directory]) == 1
    err = capsys.readouterr().err
    assert "quarantined" in err and "FAIL" in err

    # Clearing the quarantine (purge) makes verify green again.
    assert cache_cli.main(
        ["purge", "--cache-dir", directory, "--yes"]) == 0
    capsys.readouterr()
    assert cache_cli.main(["verify", "--cache-dir", directory]) == 0


def test_cache_cli_requires_directory(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(SystemExit):
        cache_cli.main(["stats"])


def test_cache_cli_stats_json(tier, capsys):
    import json

    spec, _ = _populate(tier)
    assert cache_cli.main(
        ["stats", "--cache-dir", str(tier.directory), "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == spec.num_outputs
    assert doc["bytes"] > 0
    assert doc["directory"] == str(tier.directory)
