"""Versioned JSON schemas for the observability artifacts.

Three document kinds leave this package as files: flow traces
(``repro-synth --trace``), run manifests (embedded in traces) and metric
dumps (``BENCH_*.json`` from the benchmark harness).  Downstream tooling
— ``repro-trace``, the CI perf-smoke job, dashboards — needs the formats
to be *versioned* and *checkable*, so the golden shapes live here as
data and :func:`validate` enforces them structurally.

The validator is a deliberate 60-line subset of JSON Schema (``type``,
``required``, ``properties``, ``items``) so the package keeps its
numpy-only dependency footprint; errors come back as
``path: problem`` strings.

Command-line use (CI) goes through ``repro-trace validate``::

    repro-trace validate trace.json --kind trace
    repro-trace validate BENCH_flow.json --kind metrics
"""

from __future__ import annotations

TRACE_SCHEMA_VERSION = 2

_NUMBER = {"type": "number"}
_STRING = {"type": "string"}
_INT = {"type": "integer"}

SPAN_SCHEMA: dict = {
    "type": "object",
    "required": ["name", "start", "seconds", "children"],
    "properties": {
        "name": _STRING,
        "category": _STRING,
        "start": _NUMBER,
        "seconds": _NUMBER,
        "pid": _INT,
        "attrs": {"type": "object"},
        # filled in below: children are spans (cyclic schema reference;
        # the checker recurses over the finite *document*, so this is safe)
        "children": {"type": "array"},
    },
}
SPAN_SCHEMA["properties"]["children"]["items"] = SPAN_SCHEMA

RECORD_SCHEMA: dict = {
    "type": "object",
    "required": ["pass", "output", "seconds", "details"],
    "properties": {
        "pass": _STRING,
        "output": {"type": ["string", "null"]},
        "seconds": _NUMBER,
        "gates_before": {"type": ["integer", "null"]},
        "gates_after": {"type": ["integer", "null"]},
        "gate_delta": {"type": ["integer", "null"]},
        "details": {"type": "object"},
    },
}

MANIFEST_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "circuit", "input_digest", "options_fingerprint",
                 "package_version", "python", "platform"],
    "properties": {
        "schema": _INT,
        "circuit": _STRING,
        "input_digest": _STRING,
        "options_fingerprint": _STRING,
        "num_inputs": _INT,
        "num_outputs": _INT,
        "package_version": _STRING,
        "python": _STRING,
        "platform": _STRING,
        "created_unix": _NUMBER,
        "extra": {"type": "object"},
    },
}

PROFILE_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "interval", "samples"],
    "properties": {
        "schema": _INT,
        "interval": _NUMBER,
        "pid": _INT,
        "duration": _NUMBER,
        "sample_count": _INT,
        "samples": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["spans", "stack", "count"],
                "properties": {
                    "spans": {"type": "array", "items": _STRING},
                    "stack": {"type": "array", "items": _STRING},
                    "count": _INT,
                    "weight": _NUMBER,
                },
            },
        },
    },
}

TRACE_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "circuit", "jobs", "cache", "seconds",
                 "seconds_by_pass", "records"],
    "properties": {
        "schema": _INT,
        "circuit": _STRING,
        "jobs": _INT,
        "cache": {
            "type": "object",
            "required": ["enabled", "hits", "misses"],
            "properties": {
                "enabled": {"type": "boolean"},
                "hits": _INT,
                "misses": _INT,
            },
        },
        "parallel_fallback": {"type": ["string", "null"]},
        "seconds": _NUMBER,
        "seconds_by_pass": {"type": "object"},
        "records": {"type": "array", "items": RECORD_SCHEMA},
        "spans": SPAN_SCHEMA,
        "manifest": MANIFEST_SCHEMA,
        # Optional: stack samples from the sampling profiler
        # (``repro-synth --profile``, ``options.profile``).
        "profile": PROFILE_SCHEMA,
    },
}

METRICS_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "metrics"],
    "properties": {
        "schema": _INT,
        "metrics": {"type": "object"},
    },
}

_METRIC_SCHEMA: dict = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": _STRING,
        "help": _STRING,
        "value": _NUMBER,
        "labels": {"type": "object"},
        "buckets": {"type": "array", "items": _NUMBER},
        "counts": {"type": "array", "items": _INT},
        "sum": _NUMBER,
        "count": _INT,
    },
}

SCHEMAS = {
    "trace": TRACE_SCHEMA,
    "manifest": MANIFEST_SCHEMA,
    "metrics": METRICS_SCHEMA,
    "span": SPAN_SCHEMA,
    "profile": PROFILE_SCHEMA,
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, type_spec) -> bool:
    names = type_spec if isinstance(type_spec, list) else [type_spec]
    for name in names:
        expected = _TYPES[name]
        if isinstance(value, expected):
            # bool is an int subclass; don't let True pass as integer.
            if name in ("integer", "number") and isinstance(value, bool):
                continue
            return True
    return False


def _check(value, schema: dict, path: str, errors: list[str]) -> None:
    type_spec = schema.get("type")
    if type_spec is not None and not _type_ok(value, type_spec):
        errors.append(f"{path or '$'}: expected {type_spec}, "
                      f"got {type(value).__name__}")
        return
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path or '$'}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}", errors)
    elif isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for i, element in enumerate(value):
                _check(element, items, f"{path}[{i}]", errors)


def validate(payload, schema: dict | str) -> list[str]:
    """Structural validation; returns a list of error strings (empty = ok)."""
    if isinstance(schema, str):
        schema = SCHEMAS[schema]
    errors: list[str] = []
    _check(payload, schema, "$", errors)
    return errors


def validate_trace(payload: dict) -> list[str]:
    errors = validate(payload, TRACE_SCHEMA)
    if not errors and payload["schema"] > TRACE_SCHEMA_VERSION:
        errors.append(
            f"$.schema: trace schema {payload['schema']} is newer than "
            f"supported version {TRACE_SCHEMA_VERSION}"
        )
    return errors


def require_spans(trace: dict) -> dict:
    """A trace document's span tree; :class:`ValueError` when it has none.

    Every trace the program writes carries its span tree, so a document
    without one is input from outside the program.
    """
    spans = trace.get("spans")
    if not spans:
        raise ValueError(
            f"trace schema {trace.get('schema')!r} has no span tree; only "
            f"schema-{TRACE_SCHEMA_VERSION} traces with spans are readable")
    return spans


def validate_metrics(payload: dict) -> list[str]:
    errors = validate(payload, METRICS_SCHEMA)
    if errors:
        return errors
    for name, metric in payload["metrics"].items():
        errors.extend(
            f"$.metrics.{name}{e[1:]}" if e.startswith("$") else e
            for e in validate(metric, _METRIC_SCHEMA)
        )
    return errors


def validate_manifest(payload: dict) -> list[str]:
    return validate(payload, MANIFEST_SCHEMA)
