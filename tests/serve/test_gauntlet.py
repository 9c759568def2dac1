"""The crash-restart gauntlet driver (what CI's service-smoke escalates to).

Running a reduced gauntlet under pytest keeps the crash contract —
SIGKILL mid-queue, spool replay, two daemons on one cache — inside
tier-1, not just in a separate CI lane.
"""

import pytest

from repro.serve import gauntlet


def test_gauntlet_end_to_end():
    # Three circuits: two feed the crash-restart phase, the last feeds
    # the two-daemon phase.  The full CI run uses the default five.
    assert gauntlet.main(["--circuits", "rd53,z4ml,radd"]) == 0


def test_gauntlet_check_raises():
    with pytest.raises(gauntlet.GauntletFailure, match="boom"):
        gauntlet._check(False, "boom")
    gauntlet._check(True, "fine")


def test_gauntlet_metric_parser_sums_label_variants():
    text = (
        "# HELP x\n"
        "serve_queue_wait_seconds_count 4\n"
        'serve_queue_wait_seconds_count{priority="high"} 1\n'
        'serve_queue_wait_seconds_count{priority="low"} 3\n'
        "engine_requests_fresh 1.0\n"
    )
    assert gauntlet._metric(text, "serve_queue_wait_seconds_count") == 8.0
    assert gauntlet._metric(text, "engine_requests_fresh") == 1.0
    assert gauntlet._metric(text, "absent") == 0.0


def test_gauntlet_needs_two_circuits():
    with pytest.raises(gauntlet.GauntletFailure, match="two circuits"):
        gauntlet.main(["--circuits", "rd53"])
