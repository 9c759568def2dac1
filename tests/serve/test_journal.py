"""The job journal contract: which accepted requests have no result yet.

The request spool (``repro.serve.spool``) keeps this contract; each test
pins one rule of it through ``replay()``, the question a booting daemon
asks.  ``test_spool.py`` covers the spool's file layout and disk faults.
"""

import itertools
import json
import os

import pytest

from repro.serve.spool import RequestSpool


@pytest.fixture()
def journal(tmp_path):
    return RequestSpool(str(tmp_path / "state"),
                        clock=itertools.count(1000).__next__)


def queue_job(journal, key="k1", circuit="rd53", pla=".i 1\n.o 1\n",
              options=None, client="default"):
    journal.add(request_key=key, circuit=circuit, pla=pla,
                options=options or {}, client=client)


def pending_keys(report):
    return [job["request_key"] for job in report.pending]


# -- lifecycle ---------------------------------------------------------------


def test_roundtrip_queued_is_pending(journal):
    queue_job(journal, key="a/1", options={"verify": True}, client="ci")
    report = journal.replay()
    assert len(report.pending) == 1
    job = report.pending[0]
    assert job["request_key"] == "a/1"
    assert job["circuit"] == "rd53"
    assert job["pla"] == ".i 1\n.o 1\n"
    assert job["options"] == {"verify": True}
    assert job["client"] == "ci"
    assert report.failed == 0


def test_terminal_event_clears_pending(journal):
    queue_job(journal, key="a/1")
    journal.remove("a/1")
    report = journal.replay()
    assert report.pending == []
    assert report.failed == 0
    assert journal.failed() == []


def test_failed_is_terminal_too(journal):
    queue_job(journal, key="a/1")
    journal.fail("a/1", "BudgetExceeded: boom")
    report = journal.replay()
    assert report.pending == []
    [record] = journal.failed()
    assert record["entry"]["request_key"] == "a/1"
    assert record["error"] == "BudgetExceeded: boom"


def test_pending_keeps_submission_order(journal):
    for key in ("c/3", "a/1", "b/2"):
        queue_job(journal, key=key)
    journal.remove("a/1")
    assert pending_keys(journal.replay()) == ["c/3", "b/2"]


def test_duplicate_queued_entries_fold_to_one_pending(journal):
    """Two daemons spooling the same key (dedup is per-process)."""
    queue_job(journal, key="a/1", client="east")
    queue_job(journal, key="a/1", client="west")
    report = journal.replay()
    assert len(report.pending) == 1
    assert report.pending[0]["client"] == "west"  # latest payload wins


def test_requeue_after_done_reopens_key(journal):
    queue_job(journal, key="a/1")
    journal.remove("a/1")
    queue_job(journal, key="a/1")
    assert pending_keys(journal.replay()) == ["a/1"]


# -- durability and skew -----------------------------------------------------


def test_torn_tail_is_skipped_and_healed(journal):
    queue_job(journal, key="a/1")
    # A writer killed mid-write leaves only its temp file: never read.
    with open(journal.path_for("b/2") + ".tmp-1", "w",
              encoding="utf-8") as handle:
        handle.write('{"schema": 1, "request_ke')
    # A torn entry under a final name is set aside, not replayed ...
    with open(journal.path_for("c/3"), "w", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "request_ke')
    report = journal.replay()
    assert pending_keys(report) == ["a/1"]
    assert report.failed == 1
    # ... so the next boot is clean, and the key can be spooled afresh.
    queue_job(journal, key="c/3")
    again = journal.replay()
    assert pending_keys(again) == ["a/1", "c/3"]
    assert again.failed == 0


def test_malformed_records_counted_not_fatal(journal):
    queue_job(journal, key="a/1")
    malformed = {
        "bad-pla": {"schema": 1, "request_key": "bad", "pla": 7,
                    "circuit": "x", "options": {}, "client": "c", "ts": 1},
        "no-key": {"schema": 1, "circuit": "x"},
        "bad-schema": {"schema": "one", "request_key": "a/1"},
        "not-a-dict": [1, 2],
    }
    for name, doc in malformed.items():
        with open(os.path.join(journal.pending_dir, f"{name}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(doc, handle)
    report = journal.replay()
    assert report.failed == 4
    assert report.skipped_schema == 0
    assert pending_keys(report) == ["a/1"]
    assert len(journal.failed()) == 4


def test_replay_is_idempotent(journal):
    queue_job(journal, key="a/1")
    queue_job(journal, key="b/2")
    journal.remove("b/2")
    first = journal.replay()
    second = journal.replay()
    assert pending_keys(first) == pending_keys(second) == ["a/1"]


def test_appends_create_parent_directory(tmp_path):
    nested = RequestSpool(str(tmp_path / "deep" / "dir" / "state"))
    queue_job(nested, key="a/1")
    assert os.path.exists(nested.path_for("a/1"))
    assert len(nested.replay().pending) == 1
