"""Smoke test of the benchmark itself: ``python -m pytest bench/``.

Not part of the tier-1 suite (its ``testpaths`` is ``tests/``): it boots
real daemons and takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from bench import check, inputs
from bench.stats import ROOT, catalogue


def test_checker_rejects_a_flipped_gate():
    check.self_test()


def test_smoke_run_prints_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seed", "3",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    printed = set()
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in inputs.WORKLOADS:
            printed.add((fields[0], fields[1], fields[3]))
    cat = catalogue()
    for workload in inputs.WORKLOADS:
        for m in cat["end_to_end"] + cat["per_layer"]:
            assert (workload, m["name"], m["unit"]) in printed

    events = json.loads(
        (tmp_path / "table2.spans.json").read_text())["traceEvents"]
    roots = [e["args"]["circuit"] for e in events
             if e["args"]["parent"] is None]
    assert sorted(roots) == sorted(inputs.SMOKE["table2"])

    result = json.loads((tmp_path / "result.json").read_text())
    assert set(result["workloads"]) == set(inputs.WORKLOADS)
    for doc in result["workloads"].values():
        assert doc["failed"] == 0

    same = subprocess.run(
        [sys.executable, "-m", "bench.compare", str(tmp_path), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout
