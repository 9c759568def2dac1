"""The repro-trace CLI: summary, export, validate (with exit codes), profile."""

import json

import pytest

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.flow.trace import FlowTrace
from repro.obs.cli import main


@pytest.fixture(scope="module")
def trace_dict():
    result = synthesize_fprm(get("rd53"), SynthesisOptions())
    return json.loads(result.trace.to_json())


@pytest.fixture
def trace_file(tmp_path, trace_dict):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(trace_dict))
    return path


# -- summary -----------------------------------------------------------------


def test_summary_prints_hotspots_and_manifest(trace_file, capsys):
    assert main(["summary", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "flow trace: rd53" in out
    assert "hotspots (self-time):" in out
    assert "manifest:" in out


# -- export ------------------------------------------------------------------


def test_export_chrome_emits_valid_trace_events(trace_file, tmp_path, capsys):
    out_path = tmp_path / "chrome.json"
    assert main(["export", str(trace_file), "--chrome",
                 "-o", str(out_path)]) == 0
    document = json.loads(out_path.read_text())
    events = document["traceEvents"]
    assert events, "expected at least one trace event"
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["pid"], int)
    names = {event["name"] for event in events}
    assert "derive-fprm" in names and "verify" in names
    capsys.readouterr()


def test_export_chrome_to_stdout(trace_file, capsys):
    assert main(["export", str(trace_file), "--chrome"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["displayTimeUnit"] == "ms"
    # Naming no format is a usage error.
    assert main(["export", str(trace_file)]) == 2
    assert "--chrome is the only format" in capsys.readouterr().err


def test_trace_without_spans_is_rejected(tmp_path, trace_dict, capsys):
    old = {k: v for k, v in trace_dict.items()
           if k not in ("spans", "manifest")}
    old["schema"] = 1
    with pytest.raises(ValueError, match="trace schema 1"):
        FlowTrace.from_dict(old)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    for argv in (["summary", str(path)], ["export", str(path), "--chrome"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace schema 1 has no span tree" in captured.err


# -- validate ----------------------------------------------------------------


def test_validate_subcommand(trace_file, tmp_path, capsys):
    # Exit codes: 0 valid, 1 invalid, 2 unreadable.
    assert main(["validate", str(trace_file), "--kind", "trace"]) == 0
    assert "valid trace document" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 2}))
    assert main(["validate", str(bad), "--kind", "trace"]) == 1
    assert "missing required key" in capsys.readouterr().out
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text("{not json")
    assert main(["validate", str(unreadable), "--kind", "trace"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_file_exits_with_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["summary", missing], ["validate", missing],
                 ["profile", missing], ["export", missing, "--chrome"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"repro-trace: cannot read {missing}" in captured.err


# -- summary --json -----------------------------------------------------------


def test_summary_json_emits_machine_readable_digest(trace_file, capsys):
    assert main(["summary", str(trace_file), "--json", "--top", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["circuit"] == "rd53"
    assert doc["records"] > 0
    assert doc["seconds_by_pass"]
    assert len(doc["hotspots"]) <= 3
    assert all("name" in h and "self_seconds" in h for h in doc["hotspots"])
    assert doc["manifest"]["circuit"] == "rd53"
    assert doc["has_profile"] is False


# -- profile ------------------------------------------------------------------


@pytest.fixture(scope="module")
def profiled_trace_dict():
    result = synthesize_fprm(
        get("mlp4"),
        SynthesisOptions(verify=False, profile=True, profile_interval=0.001),
    )
    return json.loads(result.trace.to_json())


@pytest.fixture
def profiled_trace_file(tmp_path, profiled_trace_dict):
    path = tmp_path / "profiled.json"
    path.write_text(json.dumps(profiled_trace_dict))
    return path


def test_profile_default_prints_hotspot_summary(profiled_trace_file, capsys):
    assert main(["profile", str(profiled_trace_file)]) == 0
    out = capsys.readouterr().out
    assert "samples @" in out
    assert "hot functions" in out


def test_profile_collapsed_to_stdout(profiled_trace_file, capsys):
    assert main(["profile", str(profiled_trace_file), "--collapsed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    frames, count = lines[0].rsplit(" ", 1)
    assert ";" in frames and int(count) >= 1


def test_profile_speedscope_to_file(profiled_trace_file, tmp_path, capsys):
    out_path = tmp_path / "flame.speedscope.json"
    assert main(["profile", str(profiled_trace_file),
                 "-o", str(out_path)]) == 0
    assert "speedscope" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["profiles"][0]["samples"]


def test_profile_without_samples_exits_one(trace_file, capsys):
    assert main(["profile", str(trace_file)]) == 1
    assert "no profile samples" in capsys.readouterr().err
