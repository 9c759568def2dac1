"""Per-layer metrics from pass records.

A record is ``{"pass", "seconds", "details"}``: the shape of the
``records`` in a ``repro-serve`` job trace, and the shape the traced
in-process sweep builds from its own spans.  One function turns either
into the per-layer metrics, so both modes count the same way.
"""

from __future__ import annotations

OUTPUT_PASSES = ("derive-fprm", "factor-cube", "factor-ofdd", "factor-xorfx",
                 "redundancy-removal", "inverter-cleanup")
NETWORK_PASSES = ("resub-merge", "verify")
ROUTES = ("dense", "dense-ofdd", "wide")

#: Serve-only per-layer counters; zero on the in-process workloads.
SERVE_COUNTERS = ("serve.dedup.hits", "serve.shed.total",
                  "flow.cache.memory.hits", "flow.cache.disk.hits",
                  "flow.cache.disk.misses", "flow.cache.disk.puts",
                  "engine.requests.cached_share", "serve.state.bytes_per_req",
                  "flow.disk_cache.bytes_per_put")


def layer_metrics(records: list[dict], *, wall: float, scale: float,
                  ofdd: dict, degradations: int,
                  skipped_no_engine: int) -> dict[str, float]:
    """Per-layer values (units as in ``BENCHMARK.json``).

    ``wall`` is the wall time the records ran inside; the part of it no
    record covers is ``flow.unattributed_pct``.  Pass times are scaled
    by ``scale`` so that every workload reports seconds per pass over
    its input set.  ``ofdd`` holds the ``ofdd.*`` counter deltas.
    """
    seconds: dict[str, float] = {}
    for record in records:
        seconds[record["pass"]] = (seconds.get(record["pass"], 0.0)
                                   + record["seconds"])
    values: dict[str, float] = {}
    for name in OUTPUT_PASSES:
        values[f"flow.{name}.s"] = seconds.get(name, 0.0) * scale
    for name in NETWORK_PASSES:
        values[f"network.{name}.s"] = seconds.get(name, 0.0) * scale
    values["flow.unattributed_pct"] = (
        100.0 * (wall - sum(seconds.values())) / wall if wall > 0 else 0.0)

    def details(name: str) -> list[dict]:
        return [r.get("details") or {} for r in records if r["pass"] == name]

    derive = details("derive-fprm")
    values["fprm.cubes"] = sum(d.get("num_fprm_cubes") or 0 for d in derive)
    for route in ROUTES:
        values[f"fprm.route.{route}"] = sum(
            1 for d in derive if d.get("route") == route)
    reduce = details("redundancy-removal")
    values["core.redundancy.candidates"] = sum(
        d.get("candidates", 0) for d in reduce)
    values["core.redundancy.rule_fires"] = sum(
        d.get("rule_fires", 0) for d in reduce)
    values["core.redundancy.gates_removed"] = sum(
        c["before"] - c["after"]
        for d in reduce for c in (d.get("per_candidate") or {}).values())
    values["core.redundancy.skipped_no_engine"] = skipped_no_engine
    cleanup = details("inverter-cleanup")
    values["expr.inverter.variants"] = sum(
        d.get("variants", 0) for d in cleanup)
    values["flow.direct_fallback"] = sum(
        1 for d in cleanup if d.get("direct_fallback"))
    resub = details("resub-merge")
    values["network.resub.candidates"] = sum(
        len(d.get("candidates") or {}) for d in resub)
    values["network.resub.gates_saved"] = sum(
        d["candidates"]["local-best"] - d["candidates"][d["winner"]]
        for d in resub if d.get("candidates"))
    verify = details("verify")
    for method in ("exhaustive", "bdd"):
        values[f"network.verify.{method}"] = sum(
            1 for d in verify if d.get("method") == method)
    values["ofdd.apply.calls"] = ofdd.get("ofdd.apply.calls", 0)
    values["ofdd.nodes"] = ofdd.get("ofdd.nodes", 0)
    hits = ofdd.get("ofdd.computed.hits", 0)
    consults = hits + ofdd.get("ofdd.computed.misses", 0)
    values["ofdd.computed.hit_ratio"] = hits / consults if consults else 0.0
    values["resilience.degradations"] = degradations
    return values
