"""Golden-schema tests: real artifacts validate, malformed ones don't."""

import json

import pytest

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.obs.cli import main as trace_cli
from repro.obs.schema import (
    TRACE_SCHEMA_VERSION,
    validate,
    validate_manifest,
    validate_metrics,
    validate_trace,
)


@pytest.fixture(scope="module")
def trace_payload():
    result = synthesize_fprm(get("rd53"), SynthesisOptions())
    return json.loads(result.trace.to_json())


def test_real_trace_is_golden(trace_payload):
    assert validate_trace(trace_payload) == []
    assert trace_payload["schema"] == TRACE_SCHEMA_VERSION
    # The span tree nests: the root must carry per-output children.
    spans = trace_payload["spans"]
    assert spans["name"] == "synthesize:rd53"
    assert any(c["name"].startswith("output:") for c in spans["children"])


def test_real_manifest_is_golden(trace_payload):
    assert validate_manifest(trace_payload["manifest"]) == []


def test_validator_reports_paths():
    broken = {"schema": "two", "circuit": "x", "jobs": 1,
              "cache": {"enabled": True, "hits": 0},
              "seconds": 0.1, "seconds_by_pass": {}, "records": []}
    errors = validate_trace(broken)
    assert any("$.schema: expected integer" in e for e in errors)
    assert any("$.cache: missing required key 'misses'" in e for e in errors)


def test_validator_rejects_future_schema(trace_payload):
    future = dict(trace_payload, schema=TRACE_SCHEMA_VERSION + 1)
    assert any("newer than supported" in e for e in validate_trace(future))


def test_validator_recurses_into_nested_spans():
    doc = {"name": "root", "start": 0.0, "seconds": 1.0,
           "children": [{"name": "child", "start": 0.0, "seconds": "oops",
                         "children": []}]}
    errors = validate(doc, "span")
    assert any("children[0].seconds" in e for e in errors)


def test_validator_rejects_bool_as_number():
    assert validate(True, {"type": "integer"})
    assert validate(True, {"type": "boolean"}) == []


def test_metrics_validator_checks_each_metric():
    good = {"schema": 1, "metrics": {"a.b": {"type": "counter", "value": 1}}}
    assert validate_metrics(good) == []
    bad = {"schema": 1, "metrics": {"a.b": {"value": 1}}}
    assert any("a.b" in e and "type" in e for e in validate_metrics(bad))


def test_schema_cli_exit_codes(tmp_path, trace_payload, capsys):
    # `repro-trace validate` is the command-line schema check for every
    # document kind: 0 valid, 1 invalid, 2 unreadable.
    documents = {
        "trace": trace_payload,
        "manifest": trace_payload["manifest"],
        "metrics": {"schema": 1,
                    "metrics": {"a.b": {"type": "counter", "value": 1}}},
    }
    for kind, document in documents.items():
        good = tmp_path / f"good-{kind}.json"
        good.write_text(json.dumps(document))
        assert trace_cli(["validate", str(good), "--kind", kind]) == 0

        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps({"schema": "two"}))
        assert trace_cli(["validate", str(bad), "--kind", kind]) == 1

    unreadable = tmp_path / "not.json"
    unreadable.write_text("{nope")
    assert trace_cli(["validate", str(unreadable), "--kind", "trace"]) == 2
    capsys.readouterr()
