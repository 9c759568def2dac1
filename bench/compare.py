"""A/B comparison of two sets of benchmark runs.

    python -m bench.compare PARENT_DIR CHANGE_DIR

Each directory holds the ``result.json`` of one or more runs of
``python -m bench --out`` (searched recursively); the runs pair up in
sorted path order.  For every metric and workload the comparison prints
each side's median and quartiles, the share of pairs the change wins
(ties count for neither side) and a verdict:

improved
    the change wins at least 9 of 10 pairs and the medians differ by
    more than the parent's interquartile spread;
regressed
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
unresolved
    not regressed, but the parent's spread is wider than the bound and
    not every change run reads better than every parent run;
unchanged
    otherwise.

Metrics without a bound (per-layer and extras) explain rather than
gate: they read improved / worse / unchanged / unresolved and never fail
the comparison.  Exit status 1 on any regression, or when the change
fails a larger share of its operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.stats import catalogue, quartiles


def load_runs(directory: str) -> list[dict]:
    paths = sorted(Path(directory).rglob("result.json"))
    if not paths:
        raise SystemExit(f"bench.compare: no result.json under {directory}")
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """``(verdict, win share)`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    spread = p3 - p1
    gain = sign * (pm - cm)  # > 0: the change reads better
    if share >= 0.9 and gain > spread:
        return "improved", share
    if bound is None:
        if losses / len(pairs) >= 0.9 and -gain > spread:
            return "worse", share
        return ("unchanged" if abs(gain) <= spread else "unresolved"), share
    scale = abs(pm) or 1.0
    if -gain / scale > bound:
        return "regressed", share
    always_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread / scale > bound and not always_better:
        return "unresolved", share
    return "unchanged", share


def fail_share(runs: list[dict], workload: str) -> float:
    docs = [r["workloads"][workload] for r in runs
            if workload in r["workloads"]]
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] for d in docs) / attempted if attempted else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.compare", description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    pairs = min(len(parent_runs), len(change_runs))
    parent_runs, change_runs = parent_runs[:pairs], change_runs[:pairs]
    bounds = {m["name"]: m["bound"] for m in catalogue()["end_to_end"]}
    failing = False
    print(f"{pairs} paired run(s)")
    print(f"{'workload':<12} {'metric':<34} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>5}  verdict")
    for workload in change_runs[0]["workloads"]:
        if not all(workload in r["workloads"]
                   for r in parent_runs + change_runs):
            continue
        metrics = change_runs[0]["workloads"][workload]["metrics"]
        for name, info in metrics.items():
            try:
                parent = [r["workloads"][workload]["metrics"][name]["value"]
                          for r in parent_runs]
                change = [r["workloads"][workload]["metrics"][name]["value"]
                          for r in change_runs]
            except KeyError:
                continue
            result, share = verdict(parent, change, info["better"],
                                    bounds.get(name))
            failing |= result == "regressed"
            sides = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                sides.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<12} {name:<34} {sides[0]:>32} {sides[1]:>32} "
                  f"{share:>5.0%}  {result}")
        parent_fail = fail_share(parent_runs, workload)
        change_fail = fail_share(change_runs, workload)
        if change_fail > parent_fail:
            failing = True
            print(f"{workload}: fail_share rose from {parent_fail:.4g} to "
                  f"{change_fail:.4g}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
