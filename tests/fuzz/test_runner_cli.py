"""Campaign runner and ``repro-fuzz`` CLI behaviour."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.cli import main
from repro.fuzz.runner import DEFAULT_ITERATIONS, FuzzConfig, FuzzRunner
from repro.obs.metrics import get_metrics_registry

FAST = dict(oracles=("cube-vs-ofdd",), properties=("polarity-roundtrip",))


def test_runner_is_deterministic():
    config = FuzzConfig(seed=4, iterations=5, **FAST)
    a = FuzzRunner(config).run()
    b = FuzzRunner(config).run()
    assert a.ok and b.ok
    assert a.cases == b.cases == 5
    assert a.checks_run == b.checks_run


def test_budget_mode_stops_on_time():
    config = FuzzConfig(seed=0, budget_seconds=1.0, **FAST)
    report = FuzzRunner(config).run()
    assert report.cases >= 1
    assert report.seconds < 30.0


def test_default_iterations_when_nothing_configured():
    assert FuzzConfig().iterations is None
    assert DEFAULT_ITERATIONS == 100


def test_runner_emits_metrics():
    registry = get_metrics_registry()
    before = registry.counter("fuzz.cases").value
    FuzzRunner(FuzzConfig(seed=5, iterations=3, **FAST)).run()
    assert registry.counter("fuzz.cases").value == before + 3
    assert registry.histogram("fuzz.case_seconds").count >= 3


def test_unknown_oracle_rejected():
    with pytest.raises(ValueError, match="unknown oracle"):
        FuzzConfig(oracles=("bogus",))


def test_cli_green_run_writes_report_and_metrics(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    status = main(
        [
            "--iterations",
            "3",
            "--seed",
            "6",
            "--oracles",
            "cube-vs-ofdd",
            "--properties",
            "output-negation",
            "--report-json",
            str(report_path),
            "--metrics",
            str(metrics_path),
            "--trace",
            str(trace_path),
        ]
    )
    assert status == 0
    report = json.loads(report_path.read_text())
    assert report["ok"] and report["cases"] == 3
    assert "fuzz.cases" in json.loads(metrics_path.read_text())["metrics"]
    trace = json.loads(trace_path.read_text())
    assert trace["category"] == "fuzz"
    assert any(child["name"].startswith("fuzz-case:") for child in trace["children"])
    out = capsys.readouterr().out
    assert "0 failure(s)" in out


def test_cli_creates_missing_output_directories(tmp_path):
    out = tmp_path / "artifacts" / "run"
    status = main(
        [
            "--iterations",
            "1",
            "--seed",
            "11",
            "--oracles",
            "cube-vs-ofdd",
            "--properties",
            "",
            "--corpus",
            str(out / "corpus"),
            "--report-json",
            str(out / "report.json"),
            "--metrics",
            str(out / "metrics" / "metrics.json"),
            "--trace",
            str(out / "trace" / "trace.json"),
        ]
    )
    assert status == 0
    assert json.loads((out / "report.json").read_text())["ok"]
    metrics = json.loads((out / "metrics" / "metrics.json").read_text())
    assert "metrics" in metrics
    trace = json.loads((out / "trace" / "trace.json").read_text())
    assert trace["category"] == "fuzz"


def test_cli_expect_failure_fails_on_green_run(capsys):
    status = main(
        [
            "--iterations",
            "1",
            "--seed",
            "0",
            "--oracles",
            "cube-vs-ofdd",
            "--properties",
            "",
            "--expect-failure",
        ]
    )
    assert status == 1


def test_cli_fault_injection_self_test(tmp_path):
    corpus = tmp_path / "corpus"
    status = main(
        [
            "--iterations",
            "10",
            "--seed",
            "1",
            "--oracles",
            "cube-vs-ofdd",
            "--properties",
            "",
            "--inject-fault",
            "drop-fprm-cube",
            "--expect-failure",
            "--corpus",
            str(corpus),
        ]
    )
    assert status == 0
    assert list(corpus.glob("*.pla")), "no reproducer written to the corpus"
    meta = json.loads(next(iter(corpus.glob("*.json"))).read_text())
    assert meta["check"] == "cube-vs-ofdd"


def test_cli_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "cube-vs-ofdd" in out
    assert "drop-fprm-cube" in out
