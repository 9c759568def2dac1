"""Run the FPRM flow benchmark.

One workload, one run (the form ``BENCHMARK.json`` names); the last
line of standard output is the JSON result::

    python3 bench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Every workload, end-to-end and per-layer metrics, with ``DIR/result.json``
and one Chrome-trace span file per workload::

    PYTHONPATH=src python -m bench --seed 1 --out DIR [--smoke]

Exit status 0 means every output checked out; 1 means a wrong or failed
output; 2 means the workload inputs no longer match ``pinned.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Run as a script, this directory heads sys.path; import the package
# (and the program under src/) from the checkout root instead.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from bench import inputs  # noqa: E402
from bench.spans import SpanRecorder  # noqa: E402
from bench.stats import (  # noqa: E402
    EXTRAS, Outcome, catalogue, clean_env, format_line, metric,
)

#: Set-ups timed per in-process run; ``setup_s`` is their median.
SETUPS = 5


def setup_probe(workload: str) -> None:
    """The in-process set-up, run in a fresh interpreter by :func:`_setup`."""
    from repro.engine import SynthesisEngine

    inputs.build_items(workload)
    SynthesisEngine().close()
    print("ready", flush=True)


def _setup(workload: str) -> float:
    """Seconds from interpreter launch until the set-up is done."""
    code = f"import bench.run; bench.run.setup_probe({workload!r})"
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=clean_env(ROOT, ROOT / "src"),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - began
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"{workload} set-up probe failed")
    return elapsed


def _run_in_process(args, outcome: Outcome, recorder: SpanRecorder,
                    timed: bool, traced: bool) -> None:
    from bench import inproc

    items = inputs.build_items(args.workload)
    if args.smoke:
        items = [i for i in items if i.label in inputs.SMOKE[args.workload]]
    setups = [_setup(args.workload) for _ in range(SETUPS)] if timed else []
    refs = inproc.references(items, args.seed)
    # Untraced tracing-off sweeps; a traced-only run still makes one, as
    # the reference the traced sweep must reproduce byte for byte.
    run = inproc.timed_sweeps(args.workload, items, args.seed,
                              args.seconds if timed else 0, refs, outcome)
    if timed:
        inproc.end_to_end(items, run, setups, outcome)
    if traced:
        inproc.traced_sweep(items, run, recorder, outcome)


def _run_serve(args, outcome: Outcome, recorder: SpanRecorder,
               traced: bool) -> None:
    from bench import serve

    keys = inputs.serve_plas()
    if args.smoke:
        keys = [k for k in keys if k[0] in inputs.SMOKE[args.workload]]
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)  # left by a killed run
    run_dir.mkdir(parents=True)
    try:
        serve.run(args.workload, args.seed, args.seconds, keys, run_dir,
                  outcome, recorder, traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_one(args) -> int:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: repro imported from {repro.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    problem = inputs.check_pinned(args.workload)
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    cat = catalogue()
    if args.seconds is None:
        args.seconds = cat["run_seconds"]
    timed = args.trace in ("0", "both")
    traced = args.trace in ("1", "both")
    outcome = Outcome()
    recorder = SpanRecorder()
    if args.workload in inputs.IN_PROCESS:
        _run_in_process(args, outcome, recorder, timed, traced)
    else:
        _run_serve(args, outcome, recorder, traced)

    # The result line carries exactly the BENCHMARK.json metrics.
    reported: dict[str, dict] = {}
    if timed:
        for m in cat["end_to_end"]:
            reported[m["name"]] = dict(outcome.metrics[m["name"]],
                                       better=m["better"])
    if traced:
        for m in cat["per_layer"]:
            reported[m["name"]] = dict(metric(outcome.layers[m["name"]],
                                              m["unit"]), better=m["better"])
    wanted = list(reported)
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    extras = dict(outcome.layers, fail_share=failed / attempted)
    for name, (unit, better) in EXTRAS.items():
        if name in extras:
            reported[name] = dict(metric(extras[name], unit), better=better)
    for name, m in reported.items():
        print(format_line(args.workload, name, m))
    for failure in outcome.failures[:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "smoke": args.smoke,
                  "attempted": attempted, "failed": failed,
                  "failures": outcome.failures[:100], "metrics": reported}
        (out / f"{args.workload}.json").write_text(
            json.dumps(detail, indent=1), encoding="utf-8")
        if traced:
            recorder.write(out / f"{args.workload}.spans.json")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name]["value"],
                           "unit": reported[name]["unit"]}
                    for name in wanted},
    }))
    return 0 if not outcome.failures else 1


def run_all(args) -> int:
    """Every workload in its own process (own peak RSS), both phases."""
    seconds = args.seconds if args.seconds is not None \
        else catalogue()["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    workloads = {}
    for workload in inputs.WORKLOADS:
        # --smoke: one sweep of each in-process subset, 3-s serve windows.
        window = seconds
        if args.smoke:
            window = 0 if workload in inputs.IN_PROCESS else 3
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(window),
                "--trace", "both", "--out", str(out)]
        if args.smoke:
            argv.append("--smoke")
        detail = out / f"{workload}.json"
        detail.unlink(missing_ok=True)
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, env=clean_env(ROOT, ROOT / "src"))
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        if detail.exists():
            workloads[workload] = json.loads(detail.read_text("utf-8"))
    (out / "result.json").write_text(json.dumps({
        "seed": args.seed, "smoke": args.smoke, "workloads": workloads,
    }, indent=1), encoding="utf-8")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "from the traced sweep, both: both phases in "
                             "one run")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write per-workload details and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="small input subsets and short windows")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    if not args.out:
        parser.error("running every workload needs --out DIR")
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
