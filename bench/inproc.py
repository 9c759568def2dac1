"""The in-process workloads: ``table2`` and ``arith12``.

One process, ``jobs=1``, verify on, cache off.  Timed sweeps run
``SynthesisEngine.synthesize`` with tracing off, each sweep in a seeded
circuit order, until ``seconds`` have passed (at least one sweep).  The
traced sweep then re-drives every circuit pass by pass through the
public pass classes, timing each call, and asserts that its BLIF is
byte-identical to the untraced result before any per-layer number is
reported.
"""

from __future__ import annotations

import random
import resource
import time

from bench import check
from bench.layers import SERVE_COUNTERS, layer_metrics
from bench.spans import SpanRecorder
from bench.stats import Outcome, metric, percentile


def _options():
    from repro.core.options import SynthesisOptions

    return SynthesisOptions(trace=False, verify=True, cache=False, jobs=1)


def _pattern_rows(vectors: check.Vectors):
    import numpy as np

    size = (vectors.count + 7) // 8
    return np.stack([
        np.unpackbits(np.frombuffer(p.to_bytes(size, "little"), np.uint8),
                      bitorder="little")[:vectors.count]
        for p in vectors.patterns
    ])


def references(items, seed: int) -> dict:
    """Per label: the vector set and the spec's value patterns on it."""
    import numpy as np

    refs = {}
    for item in items:
        spec = item.spec
        vectors = check.Vectors.for_inputs(spec.num_inputs,
                                           f"{seed}:{item.label}")
        table = spec.simulate(_pattern_rows(vectors))
        patterns = [int.from_bytes(np.packbits(row, bitorder="little")
                                   .tobytes(), "little") for row in table]
        refs[item.label] = (vectors, patterns)
    return refs


def _check(outcome: Outcome, item, blif: str, refs: dict,
           checked: set) -> None:
    """Independent check of one BLIF (each distinct text once)."""
    key = (item.label, blif)
    if key in checked:
        return
    vectors, reference = refs[item.label]
    problem = check.check_blif(blif, item.spec.input_names,
                               item.spec.output_names, vectors, reference)
    if problem:
        outcome.fail(f"{item.label}: {problem}")
    else:
        checked.add(key)


def timed_sweeps(workload: str, items, seed: int, seconds: float,
                 refs: dict, outcome: Outcome) -> dict:
    """Untraced sweeps; returns per-label BLIF, result and timings."""
    from repro.engine import SynthesisEngine
    from repro.network.blif import write_blif

    rng = random.Random(f"{workload}:{seed}")
    options = _options()
    checked: set = set()
    first: dict[str, tuple[str, object]] = {}
    times: dict[str, list[float]] = {item.label: [] for item in items}
    walls: list[float] = []
    engine_ms: list[float] = []
    start = time.perf_counter()
    with SynthesisEngine() as engine:
        while True:
            order = list(items)
            rng.shuffle(order)
            wall = 0.0
            for item in order:
                outcome.attempted += 1
                began = time.perf_counter()
                try:
                    result = engine.synthesize(item.spec, options)
                except Exception as exc:  # noqa: BLE001 — count, keep going
                    outcome.fail(f"{item.label}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - began
                times[item.label].append(elapsed)
                wall += elapsed
                engine_ms.append(result.seconds * 1000.0)
                blif = write_blif(result.network)
                first.setdefault(item.label, (blif, result))
                _check(outcome, item, blif, refs, checked)
            walls.append(wall)
            if time.perf_counter() - start >= seconds:
                break
    return {"first": first, "times": times, "walls": walls,
            "engine_ms": engine_ms}


def end_to_end(items, run: dict, setups: list[float],
               outcome: Outcome) -> None:
    """End-to-end metrics of the timed sweeps.

    Each circuit's time is its fastest sweep.  The flow is deterministic,
    so every sweep does the same work; other load on a shared machine
    only ever adds time, in bursts that last seconds.  Best-of-sweeps
    per circuit was 2-3 times steadier across runs than per-circuit
    medians or whole-sweep sums, every one of which catches some burst.
    """
    from repro.mapping import map_network, mcnc_lite_library

    best = {label: min(ts) for label, ts in run["times"].items() if ts}
    slowest = max(best, key=best.get)
    circuit_ms = [t * 1000.0 for t in best.values()]
    library = mcnc_lite_library()
    gates = literals = mapped = 0
    for item in items:
        if item.label not in run["first"]:
            continue
        result = run["first"][item.label][1]
        gates += result.two_input_gates
        literals += result.literals
        mapped += map_network(result.network, library).literal_count
    m = outcome.metrics
    m["setup_s"] = metric(percentile(setups, 50), "s", setups)
    m["suite_s"] = metric(sum(best.values()), "s", run["walls"])
    m["max_circuit_s"] = metric(best[slowest], "s", run["times"][slowest])
    m["req_per_s"] = metric(len(best) / sum(best.values()), "1/s")
    m["latency_p50_ms"] = metric(percentile(circuit_ms, 50), "ms", circuit_ms)
    m["latency_p95_ms"] = metric(percentile(circuit_ms, 95), "ms", circuit_ms)
    m["gates"] = metric(gates, "count")
    m["literals"] = metric(literals, "count")
    m["mapped_literals"] = metric(mapped, "count")
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")


def traced_sweep(items, run: dict, recorder: SpanRecorder,
                 outcome: Outcome) -> None:
    """Re-drive each circuit pass by pass and report per-layer metrics."""
    from repro.flow.context import FlowContext
    from repro.flow.passes import default_output_passes, resub_merge
    from repro.network.blif import write_blif
    from repro.network.verify import equivalent_to_spec
    from repro.obs.metrics import get_metrics_registry

    # The options synthesize() ran with (the engine adds no overrides).
    options = _options()
    registry = get_metrics_registry()
    before = registry.counter_values("ofdd.")
    records: list[dict] = []
    skipped = 0
    for item in items:
        spec = item.spec
        outcome.attempted += 1
        with recorder.span(f"circuit:{item.label}", item.label) as root:
            variants, var_maps = [], []
            for output in spec.outputs:
                with recorder.span(f"output:{output.name}", item.label,
                                   root) as parent:
                    ctx = FlowContext(output=output, options=options)
                    for pass_ in default_output_passes():
                        with recorder.span(f"flow.{pass_.name}", item.label,
                                           parent) as span:
                            details = pass_.run(ctx) or {}
                        records.append({"pass": pass_.name,
                                        "seconds": span.seconds,
                                        "details": details})
                    skipped += sum(rc.stats.skipped_no_engine
                                   for rc in ctx.reduced if rc.stats)
                variants.append(ctx.variants)
                var_maps.append(list(output.support))
            with recorder.span("network.resub-merge", item.label,
                               root) as span:
                network, _, details = resub_merge(spec, variants, var_maps)
            records.append({"pass": "resub-merge", "seconds": span.seconds,
                            "details": details})
            with recorder.span("network.verify", item.label, root) as span:
                verdict = equivalent_to_spec(network, spec)
            records.append({"pass": "verify", "seconds": span.seconds,
                            "details": {"method": verdict.method}})
        if not verdict:
            outcome.fail(f"{item.label}: traced network failed verify")
        reference = run["first"].get(item.label)
        if reference is None or write_blif(network) != reference[0]:
            outcome.fail(f"{item.label}: traced BLIF differs from the "
                         f"untraced synthesize result")
    after = registry.counter_values("ofdd.")
    ofdd = {name: value - before.get(name, 0) for name, value in after.items()}
    degradations = registry.counter_values("resilience.degradations")
    wall = sum(root.seconds for root in recorder.roots())
    values = layer_metrics(records, wall=wall, scale=1.0, ofdd=ofdd,
                           degradations=int(sum(degradations.values())),
                           skipped_no_engine=skipped)
    values["engine.synth_ms_p50"] = percentile(run["engine_ms"], 50)
    for name in SERVE_COUNTERS:
        values[name] = 0
    suite = sum(min(ts) for ts in run["times"].values() if ts)
    values["obs.trace_overhead_pct"] = 100.0 * (wall / suite - 1.0)
    outcome.layers.update(values)
