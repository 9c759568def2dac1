"""repro-fuzz — the differential fuzzing / metamorphic-testing campaign.

    repro-fuzz [--iterations N | --budget-seconds S] [--seed N]
               [--families F,...] [--oracles O,...] [--properties P,...]
               [--heavy-every N] [--corpus DIR] [--no-shrink]
               [--report-json FILE] [--trace FILE]
               [--inject-fault NAME] [--expect-failure] [--list-checks]

Generates seeded random PLAs and structured arithmetic circuits, runs
each through the differential oracles and metamorphic properties, shrinks
any failure to a minimal PLA reproducer, and writes reproducers (with
provenance) into ``--corpus``.  Exit status is 0 iff no check failed —
or, with ``--expect-failure`` (the fault-injection self-test mode), 0 iff
at least one failure *was* caught.

Reproducing a CI failure locally: the report names each failing case as
``family@seed/index``; rerun with the same ``--seed`` and
``--iterations index+1`` (all case generation and checking is
deterministic in those coordinates).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.fuzz.faults import FAULTS, inject_fault
from repro.fuzz.generators import FAMILIES
from repro.fuzz.metamorphic import PROPERTIES
from repro.fuzz.oracles import HEAVY_ORACLES, ORACLES
from repro.fuzz.runner import FuzzConfig, FuzzRunner
from repro.obs.metrics import get_metrics_registry
from repro.obs.spans import SpanTracer, install, uninstall


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Differential fuzzing and metamorphic testing of the FPRM "
            "synthesis flow (DAC'96 reproduction)"
        ),
    )
    stop = parser.add_argument_group("stop condition")
    stop.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="number of cases to run (default 100 when no budget is given)",
    )
    stop.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; stops after the current case",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign master seed (default 0)",
    )
    parser.add_argument(
        "--families",
        type=_csv,
        default=FAMILIES,
        metavar="F,...",
        help="case families (default: %s)" % ",".join(FAMILIES),
    )
    parser.add_argument(
        "--oracles",
        type=_csv,
        default=tuple(ORACLES),
        metavar="O,...",
        help="differential oracles to run",
    )
    parser.add_argument(
        "--properties",
        type=_csv,
        default=tuple(PROPERTIES),
        metavar="P,...",
        help="metamorphic properties to run",
    )
    parser.add_argument(
        "--heavy-every",
        type=int,
        default=8,
        metavar="N",
        help="run heavy oracles every N-th case (default 8)",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write shrunk reproducers into DIR",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging of failures",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write the full campaign report as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the campaign span tree as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the metrics registry snapshot as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--inject-fault",
        default=None,
        metavar="NAME",
        choices=sorted(FAULTS),
        help="self-test mode: activate a known fault (%s)" % ", ".join(sorted(FAULTS)),
    )
    parser.add_argument(
        "--expect-failure",
        action="store_true",
        help="invert the exit status: succeed iff at least one failure was "
        "caught (pairs with --inject-fault)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list oracles, properties, families and faults",
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        print("oracles:")
        for name in ORACLES:
            tag = "  (heavy)" if name in HEAVY_ORACLES else ""
            print(f"  {name}{tag}")
        print("properties:")
        for name in PROPERTIES:
            print(f"  {name}")
        print("families:", ", ".join(FAMILIES))
        print("faults:", ", ".join(sorted(FAULTS)))
        return 0

    try:
        config = FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            budget_seconds=args.budget_seconds,
            families=tuple(args.families),
            oracles=tuple(args.oracles),
            properties=tuple(args.properties),
            heavy_every=args.heavy_every,
            shrink=not args.no_shrink,
            corpus_dir=pathlib.Path(args.corpus) if args.corpus else None,
        )
    except ValueError as exc:
        parser.error(str(exc))

    def emit(path: str, document: object) -> None:
        payload = json.dumps(document, indent=2) + "\n"
        if path == "-":
            print(payload, end="")
        else:
            target = pathlib.Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(payload, encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = SpanTracer(root_name=f"fuzz:{args.seed}", category="fuzz")
        install(tracer)
    try:
        with inject_fault(args.inject_fault):
            report = FuzzRunner(config).run()
    finally:
        if tracer is not None:
            root = tracer.finish()
            uninstall(None)
            emit(args.trace, root.as_dict())

    for line in report.summary_lines():
        print(line)
    if args.report_json:
        emit(args.report_json, report.as_dict())
    if args.metrics:
        emit(args.metrics, get_metrics_registry().as_dict())

    if args.expect_failure:
        if report.ok:
            print("expected at least one failure, caught none", file=sys.stderr)
            return 1
        print(f"self-test ok: caught {len(report.failures)} failure(s)")
        return 0
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
