"""``repro-trace`` — inspect, validate and export flow-trace JSON.

Subcommands::

    repro-trace summary RUN.json [--top N] [--json]
        Compact text summary: cache stats, per-pass totals and the
        top-N hotspots by aggregated self-time.  ``--json`` emits the
        same digest as a machine-readable JSON object instead.

    repro-trace profile RUN.json [--collapsed | --speedscope] [-o OUT]
        Flamegraph export of the sampling profile embedded in a trace
        produced with ``repro-synth --profile``.  Default prints a
        hotspot summary; ``--collapsed`` writes collapsed stacks
        (flamegraph.pl-style), ``--speedscope`` the speedscope JSON
        document.  With ``-o`` the extension picks the format
        (``.collapsed``/``.folded`` vs anything else).

    repro-trace export RUN.json --chrome [-o OUT.json]
        Emit Chrome trace-event JSON, loadable in ``chrome://tracing``
        or https://ui.perfetto.dev.

    repro-trace validate FILE [--kind trace|metrics|manifest]
        Structural schema validation (what the CI perf-smoke job runs).

``summary`` and ``export`` read the trace's span tree; a document
without one (not written by this program) is unreadable input.

Comparing runs is the benchmark's job (``python -m bench.compare``).

Exit codes: 0 success; 1 invalid document (or no profile samples);
2 unreadable input or usage error, with the message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.chrome import trace_to_chrome_json
from repro.obs.schema import validate_manifest, validate_metrics, validate_trace

__all__ = ["main"]


def _load(path: str) -> dict:
    """The JSON document at ``path``; :class:`ValueError` when unreadable,
    which :func:`main` turns into exit code 2."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read {path}: {err}") from err


# -- summary -----------------------------------------------------------------


def _cmd_summary(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    from repro.flow.trace import FlowTrace

    parsed = FlowTrace.from_dict(trace)
    if args.json:
        doc = {
            "circuit": parsed.circuit,
            "jobs": parsed.jobs,
            "seconds": parsed.seconds,
            "records": len(parsed.records),
            "cache": {
                "enabled": parsed.cache_enabled,
                "hits": parsed.cache_hits,
                "misses": parsed.cache_misses,
            },
            "resilience": {
                "degradations": list(parsed.degradations),
            },
            "metrics": parsed.metrics,
            "seconds_by_pass": parsed.seconds_by_pass(),
            "hotspots": [
                {"name": name, "self_seconds": round(secs, 6)}
                for name, secs in parsed.hotspots(args.top)
            ],
            "manifest": trace.get("manifest"),
            "has_profile": bool(trace.get("profile")),
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(parsed.summary(top=args.top))
    manifest = trace.get("manifest")
    if manifest:
        print(
            f"  manifest: input={manifest.get('input_digest', '')[:16]}  "
            f"options={manifest.get('options_fingerprint', '')}  "
            f"v{manifest.get('package_version', '?')} "
            f"py{manifest.get('python', '?')} "
            f"{manifest.get('platform', '?')}"
        )
    return 0


# -- profile -----------------------------------------------------------------


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.prof import (
        Profile,
        profile_to_collapsed,
        profile_to_speedscope,
        write_profile,
    )

    trace = _load(args.trace)
    payload = trace.get("profile")
    if not payload or not payload.get("samples"):
        print(f"repro-trace: {args.trace} carries no profile samples "
              "(produce one with repro-synth --profile)", file=sys.stderr)
        return 1
    profile = Profile.from_dict(payload)
    name = trace.get("circuit") or "repro"
    if args.output and args.output != "-":
        kind = write_profile(profile, args.output, name=name)
        print(f"wrote {kind} flamegraph ({profile.sample_count} samples, "
              f"~{profile.total_weight:.3f}s sampled) "
              f"to {args.output}")
        return 0
    if args.collapsed:
        sys.stdout.write(profile_to_collapsed(profile))
        return 0
    if args.speedscope:
        print(json.dumps(profile_to_speedscope(profile, name=name), indent=2))
        return 0
    print(f"profile: {name}  {profile.sample_count} samples @ "
          f"{profile.interval * 1000:.1f}ms  duration {profile.duration:.3f}s")
    print("  by span:")
    for span, secs in list(profile.seconds_by_span().items())[:args.top]:
        print(f"    {span:<28} ~{secs:7.3f}s")
    print("  hot functions (leaf frames):")
    for frame, secs in profile.hotspots(args.top):
        print(f"    {frame:<48} ~{secs:7.3f}s")
    return 0


# -- export ------------------------------------------------------------------


def _cmd_export(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    if not args.chrome:
        raise ValueError("export: --chrome is the only format")
    document = trace_to_chrome_json(trace, indent=2)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        events = len(json.loads(document)["traceEvents"])
        print(f"wrote {events} trace event(s) to {args.output}")
    else:
        print(document)
    return 0


# -- validate ----------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    payload = _load(args.file)
    validator = {
        "trace": validate_trace,
        "metrics": validate_metrics,
        "manifest": validate_manifest,
    }[args.kind]
    errors = validator(payload)
    if errors:
        for error in errors:
            print(f"{args.file}: {error}")
        return 1
    print(f"{args.file}: valid {args.kind} document")
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect, validate and export repro flow traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="print a text summary")
    p_summary.add_argument("trace", help="trace JSON file ('-' for stdin)")
    p_summary.add_argument("--top", type=int, default=5,
                           help="hotspot count (default 5)")
    p_summary.add_argument("--json", action="store_true",
                           help="machine-readable JSON instead of text")
    p_summary.set_defaults(func=_cmd_summary)

    p_profile = sub.add_parser(
        "profile", help="flamegraph export of the embedded sampling profile"
    )
    p_profile.add_argument("trace", help="trace JSON file ('-' for stdin)")
    fmt = p_profile.add_mutually_exclusive_group()
    fmt.add_argument("--collapsed", action="store_true",
                     help="collapsed stacks to stdout (flamegraph.pl)")
    fmt.add_argument("--speedscope", action="store_true",
                     help="speedscope JSON to stdout")
    p_profile.add_argument("-o", "--output", default=None,
                           help="write to a file; .collapsed/.folded picks "
                                "the collapsed format, else speedscope")
    p_profile.add_argument("--top", type=int, default=10,
                           help="rows in the default hotspot summary")
    p_profile.set_defaults(func=_cmd_profile)

    p_export = sub.add_parser("export", help="export to another format")
    p_export.add_argument("trace", help="trace JSON file ('-' for stdin)")
    p_export.add_argument("--chrome", action="store_true",
                          help="Chrome trace-event JSON (Perfetto-viewable)")
    p_export.add_argument("-o", "--output", default=None,
                          help="output file (default: stdout)")
    p_export.set_defaults(func=_cmd_export)

    p_validate = sub.add_parser("validate",
                                help="schema-validate an observability JSON")
    p_validate.add_argument("file", help="JSON file ('-' for stdin)")
    p_validate.add_argument("--kind", default="trace",
                            choices=("trace", "metrics", "manifest"))
    p_validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # unreadable file, trace without span tree
        print(f"repro-trace: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
