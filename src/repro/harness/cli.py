"""repro-synth — synthesize a PLA or BLIF file from the command line.

    python -m repro.harness.cli INPUT [-o OUT.blif] [--flow fprm|sislite]
                                [--report] [--library GENLIB]
                                [--jobs N] [--trace FILE] [--profile FILE]
                                [--cache] [--cache-dir DIR]

Reads a two-level PLA or structural BLIF, runs the chosen flow (the
paper's FPRM flow by default) through the shared
:mod:`repro.engine` layer, verifies equivalence, optionally maps onto
a genlib library, and writes the result as BLIF.  ``--report`` prints the
gate/literal/depth/power summary instead of (or in addition to) writing.
``--jobs N`` synthesizes outputs across N worker processes (0 = all
cores), ``--trace FILE`` dumps the per-pass FlowTrace as JSON (``-``
writes it to stdout), ``--profile FILE`` attaches the sampling profiler
and writes a flamegraph (speedscope JSON, or collapsed stacks for a
``.collapsed``/``.folded`` extension), ``--cache`` reuses per-output results within
the process, and ``--cache-dir DIR`` (or ``REPRO_CACHE_DIR``) shares
them across processes through the disk cache tier.  Inspect, diff or
export a dumped trace with the ``repro-trace`` companion tool
(:mod:`repro.obs.cli`); inspect or maintain a disk cache with
``repro-cache``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.engine import (
    EngineConfig,
    SynthesisEngine,
    resolve_cache_dir,
    resolve_options,
)
from repro.mapping import map_network, mcnc_lite_library, parse_genlib
from repro.network.blif import parse_blif, write_blif
from repro.network.to_expr import spec_from_network, spec_from_pla_text
from repro.power import estimate_power
from repro.timing import network_delay


def load_spec(path: pathlib.Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".pla" or text.lstrip().startswith(".i"):
        return spec_from_pla_text(text, name=path.stem)
    return spec_from_network(parse_blif(text), name=path.stem)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-synth",
        description="FPRM multilevel synthesis (DAC'96 reproduction)",
    )
    parser.add_argument("input", help="PLA or BLIF file")
    parser.add_argument("-o", "--output", default=None,
                        help="write the synthesized network as BLIF")
    parser.add_argument("--flow", choices=["fprm", "sislite"],
                        default="fprm")
    parser.add_argument("--library", default=None,
                        help="genlib file for technology mapping "
                             "(default: built-in mcnc_lite)")
    parser.add_argument("--map", action="store_true",
                        help="report mapped gates/literals too")
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument("--report", action="store_true",
                        help="print a synthesis report to stdout")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="synthesize outputs across N worker processes "
                             "(0 = all cores; fprm flow only)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write the per-pass FlowTrace as JSON "
                             "('-' = stdout; fprm flow only)")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="sample the run and write a flamegraph: "
                             ".collapsed/.folded = collapsed stacks, else "
                             "speedscope JSON (fprm flow only)")
    parser.add_argument("--profile-interval", type=float, default=None,
                        metavar="S",
                        help="sampling period in seconds (default 0.005)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse per-output results across runs in this "
                             "process (fprm flow only)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk-backed result cache shared across "
                             "processes (implies --cache; default: the "
                             "REPRO_CACHE_DIR environment variable)")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        metavar="S",
                        help="wall-clock budget for the run; on exhaustion "
                             "the flow degrades effort instead of failing "
                             "(fprm flow only)")
    parser.add_argument("--timeout-per-output", type=float, default=None,
                        metavar="S",
                        help="watchdog window for pool workers: when no "
                             "output finishes for S seconds, kill the pool "
                             "and run the unfinished outputs in-process "
                             "(fprm flow only)")
    args = parser.parse_args(argv)

    spec = load_spec(pathlib.Path(args.input))
    verify = not args.no_verify
    # All the per-flag plumbing lives in the engine layer now: sparse
    # overrides fold into the defaults, a cache directory attaches the
    # shared disk tier, and the engine assembles the right pipeline.
    options = resolve_options(
        verify=verify,
        cache=args.cache or None,
        jobs=args.jobs,
        profile=True if args.profile else None,
        profile_interval=args.profile_interval,
        budget_seconds=args.budget_seconds,
        timeout_per_output=args.timeout_per_output,
    )
    config = EngineConfig(
        options=options,
        flow=args.flow,
        cache_dir=resolve_cache_dir(args.cache_dir),
    )
    with SynthesisEngine(config) as engine:
        run = engine.run(spec)
    network = run.network
    seconds = run.seconds
    trace = run.trace
    flow_note = run.flow

    if args.report or not args.output:
        print(f"flow:    {flow_note}")
        print(f"inputs:  {spec.num_inputs}   outputs: {spec.num_outputs}")
        print(f"gates:   {network.two_input_gate_count()} "
              f"(2-input AND/OR, XOR=3)")
        print(f"lits:    {network.literal_count()}")
        print(f"depth:   {network_delay(network).delay:.0f} levels")
        print(f"power:   {estimate_power(network).microwatts:.1f} uW")
        print(f"runtime: {seconds:.2f} s")
        if trace is not None:
            passes = len(trace.records)
            note = f"passes:  {passes} records, jobs={trace.jobs}"
            if trace.cache_enabled:
                note += (f", cache {trace.cache_hits} hit(s)/"
                         f"{trace.cache_misses} miss(es)")
            print(note)
            if config.cache_dir is not None:
                from repro.obs.metrics import get_metrics_registry

                registry = get_metrics_registry()
                print(f"disk-cache: "
                      f"{registry.counter('cache.disk.hits').value:g} "
                      f"hit(s), "
                      f"{registry.counter('cache.disk.puts').value:g} "
                      f"store(s) in {config.cache_dir}")
            if trace.degradations:
                print(f"resilience: degraded: "
                      f"{', '.join(trace.degradations)}")
            hot = trace.hotspots()
            if hot:
                print("hotspots (self-time):")
                for name, secs in hot:
                    print(f"  {name:<24} {secs:8.4f}s")
        if args.map:
            library = (
                parse_genlib(pathlib.Path(args.library).read_text(),
                             name=args.library)
                if args.library else mcnc_lite_library()
            )
            mapped = map_network(network, library)
            print(f"mapped:  {mapped.gate_count} cells, "
                  f"{mapped.literal_count} lits, area {mapped.area:.0f}")
    if args.profile:
        if trace is None or trace.profile is None:
            print("--profile: no profile collected for this flow; skipped",
                  file=sys.stderr)
        else:
            from repro.obs.prof import write_profile

            kind = write_profile(trace.profile, args.profile, name=spec.name)
            print(f"wrote {kind} flamegraph "
                  f"({trace.profile.sample_count} samples) to {args.profile}",
                  file=sys.stderr)
    if args.trace:
        if trace is None:
            print("--trace: no trace available for this flow; skipped",
                  file=sys.stderr)
        elif args.trace == "-":
            print(trace.to_json())
        else:
            pathlib.Path(args.trace).write_text(
                trace.to_json(), encoding="utf-8"
            )
            print(f"wrote {args.trace}", file=sys.stderr)
    if args.output:
        pathlib.Path(args.output).write_text(
            write_blif(network, model=spec.name), encoding="utf-8"
        )
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
