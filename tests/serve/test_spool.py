"""Pending-request spool: add/remove/fail, replay order, skew, faults."""

import json
import os

import pytest

from repro.resilience import faultfs
from repro.resilience.faultfs import parse_plan
from repro.serve.spool import SPOOL_SCHEMA_VERSION, RequestSpool


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture()
def spool(tmp_path):
    return RequestSpool(str(tmp_path / "state"), clock=FakeClock())


@pytest.fixture(autouse=True)
def no_fault_plan():
    faultfs.clear()
    yield
    faultfs.clear()


def add(spool, key="k1", circuit="rd53", pla=".i 1\n.o 1\n", options=None,
        client="default"):
    spool.add(request_key=key, circuit=circuit, pla=pla,
              options=options or {}, client=client)


def write_raw(spool, name, text):
    os.makedirs(spool.pending_dir, exist_ok=True)
    with open(os.path.join(spool.pending_dir, name), "w",
              encoding="utf-8") as handle:
        handle.write(text)


def test_add_remove_fail_roundtrip(spool):
    add(spool, key="a/1", options={"verify": True}, client="ci")
    add(spool, key="b/2")
    report = spool.replay()
    assert [entry["request_key"] for entry in report.pending] \
        == ["a/1", "b/2"]
    entry = report.pending[0]
    assert (entry["circuit"], entry["options"], entry["client"]) \
        == ("rd53", {"verify": True}, "ci")
    assert entry["schema"] == SPOOL_SCHEMA_VERSION
    assert "priority" not in entry

    spool.remove("a/1")
    spool.remove("a/1")  # a missing entry is fine
    spool.fail("b/2", "BudgetExceeded: boom")
    assert spool.replay().pending == []
    [failed] = spool.failed()
    assert failed["entry"]["request_key"] == "b/2"
    assert failed["error"] == "BudgetExceeded: boom"
    # A finished key submitted again is pending again.
    add(spool, key="a/1")
    assert spool.pending_keys() == ["a/1"]
    assert spool.write_errors == 0


def test_replay_is_oldest_first_and_readd_overwrites(spool):
    for key in ("c/3", "a/1", "b/2"):
        add(spool, key=key)
    assert spool.pending_keys() == ["c/3", "a/1", "b/2"]
    # Re-adding a key (a second daemon, or a resubmission after it was
    # done) overwrites the entry: one file, newest payload and time.
    add(spool, key="c/3", client="west")
    report = spool.replay()
    assert [e["request_key"] for e in report.pending] == ["a/1", "b/2", "c/3"]
    assert report.pending[-1]["client"] == "west"
    assert len(os.listdir(spool.pending_dir)) == 3
    # Listing is idempotent.
    assert spool.pending_keys() == ["a/1", "b/2", "c/3"]


def test_schema_1_entry_with_priority_still_replays(spool):
    # The format of releases with priority classes: schema 1 and a
    # ``priority`` field, which replay now ignores.
    write_raw(spool, "old-1.json", json.dumps(
        {"schema": 1, "request_key": "old/1", "circuit": "rd53",
         "pla": ".i 1\n.o 1\n", "options": {}, "priority": "low",
         "client": "ci", "ts": 5.0}))
    report = spool.replay()
    assert report.failed == 0 and report.skipped_schema == 0
    [entry] = report.pending
    assert (entry["request_key"], entry["client"]) == ("old/1", "ci")


def test_newer_schema_entry_is_skipped_and_kept(spool):
    add(spool, key="a/1")
    future = {"schema": SPOOL_SCHEMA_VERSION + 1, "request_key": "z/9",
              "shape": "unknown to this release"}
    write_raw(spool, "z-9.json", json.dumps(future))
    report = spool.replay()
    assert report.skipped_schema == 1
    assert report.failed == 0
    assert [e["request_key"] for e in report.pending] == ["a/1"]
    # Left in place for the daemon that understands it.
    assert spool.replay().skipped_schema == 1
    assert spool.failed() == []


def test_unparsable_entry_moves_to_failed(spool):
    add(spool, key="a/1")
    write_raw(spool, "torn.json", '{"schema": 1, "request_ke')
    write_raw(spool, "no-pla.json", json.dumps(
        {"schema": 1, "request_key": "x/1", "circuit": "c", "pla": 7,
         "options": {}, "client": "c", "ts": 1.0}))
    write_raw(spool, "bad-schema.json", json.dumps(
        {"schema": "one", "request_key": "x/2"}))
    report = spool.replay()
    assert [e["request_key"] for e in report.pending] == ["a/1"]
    assert report.failed == 3
    failed = spool.failed()
    assert len(failed) == 3
    assert all(record["error"].startswith("unreadable entry")
               for record in failed)
    assert '{"schema": 1, "request_ke' in [r["entry"] for r in failed]
    # Moved, not copied: the next boot neither sees nor counts them.
    again = spool.replay()
    assert again.failed == 0
    assert [e["request_key"] for e in again.pending] == ["a/1"]


def test_missing_spool_replays_empty(tmp_path):
    spool = RequestSpool(str(tmp_path / "never-created"))
    report = spool.replay()
    assert report.pending == [] and report.failed == 0
    assert spool.pending_keys() == [] and spool.failed() == []


@pytest.mark.parametrize("rule", [
    "write:partial:path=pending:count=1",
    "write:enospc:path=pending:count=1",
    "replace:eio:path=pending:count=1",
], ids=["torn-write", "enospc", "eio-rename"])
def test_write_faults_are_absorbed(spool, rule):
    add(spool, key="a/1")
    faultfs.install(parse_plan(rule))
    add(spool, key="b/2")  # no exception: the fault is absorbed
    assert spool.write_errors == 1
    faultfs.clear()
    # The failed write left neither an entry nor a temp file behind.
    assert os.listdir(spool.pending_dir) == [
        os.path.basename(spool.path_for("a/1"))]
    assert spool.pending_keys() == ["a/1"]
    add(spool, key="b/2")  # the disk recovered
    assert spool.pending_keys() == ["a/1", "b/2"]


def test_failed_move_keeps_the_pending_entry(spool):
    add(spool, key="a/1")
    faultfs.install(parse_plan("write:enospc:path=failed:count=1"))
    spool.fail("a/1", "ValueError: bad cover")
    assert spool.write_errors == 1
    assert spool.pending_keys() == ["a/1"]
    assert spool.failed() == []
