"""Deterministic FS fault injection: grammar, matching, torn writes."""

import errno
import json
import os

import pytest

from repro.obs.metrics import get_metrics_registry
from repro.resilience import faultfs
from repro.resilience.faultfs import (
    FAULTFS_ENV,
    FaultPlan,
    FaultRule,
    atomic_write_text,
    parse_plan,
)


@pytest.fixture(autouse=True)
def no_plan():
    faultfs.clear()
    yield
    faultfs.clear()


# -- grammar ------------------------------------------------------------------


def test_parse_plan_full_grammar():
    plan = parse_plan(
        "write:enospc:path=entries:after=2;"
        "fsync:eio:path=journal;"
        "write:partial:path=journal:count=1"
    )
    assert len(plan.rules) == 3
    first = plan.rules[0]
    assert (first.op, first.kind, first.path, first.after, first.count) \
        == ("write", "enospc", "entries", 2, None)
    assert plan.rules[2].count == 1


def test_parse_plan_ignores_empty_chunks():
    assert parse_plan(";;write:eio;;").rules[0].op == "write"
    assert len(parse_plan("").rules) == 0


@pytest.mark.parametrize("spec,match", [
    ("write", "op:kind"),
    ("write:explode", "kind"),
    ("scribble:eio", "op"),
    ("write:eio:nonsense", "key=value"),
    ("write:eio:frob=1", "unknown"),
])
def test_parse_plan_rejects_bad_specs(spec, match):
    with pytest.raises(ValueError, match=match):
        parse_plan(spec)


# -- rule matching ------------------------------------------------------------


def test_rule_after_skips_then_count_bounds():
    rule = FaultRule(op="write", kind="eio", after=2, count=2)
    fired = [rule.take("write", "/x") for _ in range(6)]
    assert fired == [False, False, True, True, False, False]


def test_rule_path_substring_and_op_wildcard():
    rule = FaultRule(op="*", kind="eio", path="journal")
    assert rule.take("fsync", "/state/journal.jsonl")
    assert not rule.take("write", "/state/cache/entry.json")
    assert rule.take("replace", "/state/journal.0001.jsonl")


def test_first_matching_rule_wins():
    plan = FaultPlan(rules=[
        FaultRule(op="write", kind="enospc", count=1),
        FaultRule(op="write", kind="eio"),
    ])
    assert plan.check("write", "/a").kind == "enospc"
    assert plan.check("write", "/a").kind == "eio"
    assert plan.injected_total == 2


# -- injection through the primitives -----------------------------------------


def test_no_plan_is_passthrough(tmp_path):
    path = str(tmp_path / "f.txt")
    fd = faultfs.fs_open(path, os.O_WRONLY | os.O_CREAT)
    assert faultfs.fs_write(fd, b"hello") == 5
    faultfs.fs_fsync(fd)
    faultfs.fs_close(fd)
    with open(path) as handle:
        assert handle.read() == "hello"


def test_enospc_on_open_counts_metric(tmp_path):
    registry = get_metrics_registry()
    before = registry.counter("faultfs.injected", "").value
    faultfs.install(parse_plan("open:enospc:count=1"))
    with pytest.raises(OSError) as info:
        faultfs.fs_open(str(tmp_path / "f"), os.O_WRONLY | os.O_CREAT)
    assert info.value.errno == errno.ENOSPC
    assert registry.counter("faultfs.injected", "").value == before + 1
    # count=1 exhausted: the retry goes through.
    fd = faultfs.fs_open(str(tmp_path / "f"), os.O_WRONLY | os.O_CREAT)
    faultfs.fs_close(fd)


def test_partial_write_leaves_torn_prefix(tmp_path):
    path = str(tmp_path / "torn.jsonl")
    fd = faultfs.fs_open(path, os.O_WRONLY | os.O_CREAT)
    faultfs.install(parse_plan("write:partial:count=1"))
    payload = json.dumps({"event": "queued", "pad": "x" * 40}).encode()
    with pytest.raises(OSError) as info:
        faultfs.fs_write(fd, payload)
    assert info.value.errno == errno.ENOSPC
    faultfs.fs_close(fd)
    with open(path, "rb") as handle:
        torn = handle.read()
    # Exactly the documented torn-write shape: a proper prefix.
    assert 0 < len(torn) < len(payload)
    assert payload.startswith(torn)


def test_write_faults_match_by_registered_fd_path(tmp_path):
    faultfs.install(parse_plan("write:eio:path=journal"))
    journal = str(tmp_path / "journal.jsonl")
    other = str(tmp_path / "other.jsonl")
    fd_j = faultfs.fs_open(journal, os.O_WRONLY | os.O_CREAT)
    fd_o = faultfs.fs_open(other, os.O_WRONLY | os.O_CREAT)
    assert faultfs.fs_write(fd_o, b"ok") == 2
    with pytest.raises(OSError) as info:
        faultfs.fs_write(fd_j, b"doomed")
    assert info.value.errno == errno.EIO
    faultfs.fs_close(fd_j)
    faultfs.fs_close(fd_o)


def test_replace_fault_matches_destination(tmp_path):
    src = tmp_path / "tail.tmp"
    src.write_text("x")
    faultfs.install(parse_plan("replace:eio:path=.0001.jsonl:count=1"))
    with pytest.raises(OSError):
        faultfs.fs_replace(str(src), str(tmp_path / "journal.0001.jsonl"))
    assert src.exists()  # the rename never happened
    faultfs.fs_replace(str(src), str(tmp_path / "journal.0001.jsonl"))
    assert (tmp_path / "journal.0001.jsonl").read_text() == "x"


# -- env activation -----------------------------------------------------------


def test_env_plan_loaded_on_first_use(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULTFS_ENV, "open:eio:path=guarded")
    faultfs.clear()
    # clear() marks the env as checked; reset that to model a fresh boot.
    faultfs._ENV_CHECKED = False
    assert faultfs.active_plan() is not None
    with pytest.raises(OSError):
        faultfs.fs_open(str(tmp_path / "guarded.txt"),
                        os.O_WRONLY | os.O_CREAT)


# -- atomic_write_text --------------------------------------------------------


def test_atomic_write_text_round_trip(tmp_path):
    path = str(tmp_path / "sub" / "doc.json")
    atomic_write_text(path, '{"v": 1}')
    with open(path) as handle:
        assert handle.read() == '{"v": 1}'


def test_atomic_write_text_fault_preserves_old_content(tmp_path):
    path = str(tmp_path / "doc.json")
    atomic_write_text(path, "old")
    for rule in ("write:enospc:count=1", "fsync:eio:count=1",
                 "replace:enospc:count=1"):
        faultfs.install(parse_plan(rule))
        with pytest.raises(OSError):
            atomic_write_text(path, "new-" + rule)
        faultfs.clear()
        with open(path) as handle:
            assert handle.read() == "old"
        # No temp-file litter either: the failed write cleaned up.
        assert os.listdir(tmp_path) == ["doc.json"]
    atomic_write_text(path, "new")
    with open(path) as handle:
        assert handle.read() == "new"


# -- writers routed through faultfs -------------------------------------------


def test_rules_reach_lease_writes(tmp_path):
    from repro.resilience.lease import LeaseManager

    now = [1000.0]
    mgr = LeaseManager(str(tmp_path / "leases"), ttl_seconds=10.0,
                       clock=lambda: now[0])
    lease = mgr.try_acquire("k")
    stamp = mgr.read_stamp("k")
    now[0] += 5.0
    faultfs.install(parse_plan("replace:eio:path=leases:count=1"))
    # The heartbeat's rename hits the fault: the lease reports lost, the
    # old stamp stays, and no temp file is left behind.
    assert mgr.heartbeat(lease) is False
    assert mgr.read_stamp("k") == stamp
    assert os.listdir(mgr.directory) == [os.path.basename(lease.path)]
    # A torn first write of a fresh lease is absorbed and counted.
    faultfs.install(parse_plan("write:partial:path=leases:count=1"))
    assert mgr.try_acquire("k2") is not None
    assert mgr.errors == 1


def test_rules_reach_the_log_sink(tmp_path, monkeypatch):
    from repro.obs import logs

    path = tmp_path / "events.log"
    monkeypatch.setenv(logs.LOG_FILE_ENV, str(path))
    monkeypatch.setattr(logs, "_stream", None)
    monkeypatch.setattr(logs, "_env_checked_pid", -1)
    monkeypatch.setattr(logs, "_env_path", None)
    registry = get_metrics_registry()
    before = registry.counter("faultfs.injected", "").value
    faultfs.install(parse_plan("write:eio:path=events.log:count=1"))
    # Best-effort: the failed write is swallowed and the line is lost.
    logs.log_event("lost")
    assert registry.counter("faultfs.injected", "").value == before + 1
    assert path.read_text() == ""
    logs.log_event("kept")
    assert [json.loads(line)["event"]
            for line in path.read_text().splitlines()] == ["kept"]


def test_rules_reach_the_cache_quarantine_move(tmp_path):
    from repro.flow.disk_cache import DiskCacheTier

    tier = DiskCacheTier(tmp_path / "cache")
    key = "digest/fingerprint"
    entry = tier.path_for(key)
    entry.parent.mkdir(parents=True)
    entry.write_text("not json at all {")
    registry = get_metrics_registry()
    injected = registry.counter("faultfs.injected", "").value
    corruptions = registry.counter("cache.disk.corruptions", "").value
    faultfs.install(parse_plan("replace:eio:path=quarantine:count=1"))
    # The move aside fails: the entry is unlinked instead, and still
    # counted as a corruption.
    assert tier.load_entry(key) is None
    assert not entry.exists()
    assert list(tier.quarantine_dir.iterdir()) == []
    assert registry.counter("cache.disk.corruptions", "").value \
        == corruptions + 1
    assert registry.counter("faultfs.injected", "").value == injected + 1
