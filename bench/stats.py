"""Metric records, order statistics and the metric catalogue."""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Metrics the benchmark reports beside the ``BENCHMARK.json`` lists.
#: They exist on only some workloads, so the JSON result line omits
#: them; ``result.json`` and ``bench.compare`` carry them.
EXTRAS = {
    "fail_share": ("share", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
    "serve.queue_wait_ms_p50": ("ms", "lower"),
    "serve.job_overhead_ms_p50": ("ms", "lower"),
    "serve.http_ms_p50": ("ms", "lower"),
}


def clean_env(*paths: Path) -> dict:
    """This environment minus ``REPRO_*`` knobs, importing from ``paths``.

    Child processes (set-up probes, daemons) get the checkout's code and
    none of the environment switches that change the program's
    behaviour (cache dirs, budgets, history files).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    return env


class Outcome:
    """What one workload run hands back.

    ``metrics`` holds end-to-end metric records, ``layers`` the raw
    per-layer values (their units come from the catalogue).
    """

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)


def catalogue() -> dict:
    """``BENCHMARK.json``: run length, workloads and the metric lists."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric(value: float, unit: str, samples: list[float] | None = None) -> dict:
    """One reported metric: its value plus the spread of its samples.

    ``samples`` are the observations the value summarizes (sweep walls,
    request latencies, set-ups); a single observation when omitted.
    """
    samples = samples if samples else [value]
    q1, median, q3 = quartiles(samples)
    return {"value": value, "unit": unit, "median": median, "q1": q1,
            "q3": q3, "samples": len(samples)}


def format_line(workload: str, name: str, m: dict) -> str:
    return (f"{workload} {name} {m['value']:.6g} {m['unit']}  "
            f"median={m['median']:.6g} q1={m['q1']:.6g} q3={m['q3']:.6g} "
            f"n={m['samples']}")
