"""Table 2, pinned exactly: every circuit's counts at the paper's flow.

``table2_golden.json`` holds one line per Table 2 circuit: gates,
literals and mapped literals, whether verification ran and passed, four
deterministic work counts derived from the run's trace, and the SHA-256
of the network's BLIF text, so a change that keeps every count but
builds different gates fails too.  Any difference fails, a decrease as
well as a growth: a change that moves a Table 2 number is a quality
change, reported on its own and re-pinned by hand.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.circuits import all_names, get
from repro.core.options import SynthesisOptions
from repro.engine import SynthesisEngine
from repro.mapping import map_network, mcnc_lite_library
from repro.network.blif import write_blif

GOLDEN = json.loads(
    Path(__file__).with_name("table2_golden.json").read_text(encoding="utf-8")
)

OPTIONS = SynthesisOptions(verify=True, trace=True, cache=False, jobs=1)


def observed(result) -> dict:
    """The pinned fields of one traced, verified synthesis result."""
    records = result.trace.records

    def details(pass_name: str) -> list[dict]:
        return [r.details for r in records if r.pass_name == pass_name]

    return {
        "gates": result.two_input_gates,
        "literals": result.literals,
        "mapped_literals": map_network(
            result.network, mcnc_lite_library()).literal_count,
        "verified": result.verify is not None and bool(result.verify),
        "fprm.cubes": sum(d.get("num_fprm_cubes") or 0
                          for d in details("derive-fprm")),
        "core.redundancy.rule_fires": sum(
            d.get("rule_fires", 0) for d in details("redundancy-removal")),
        "expr.inverter.variants": sum(
            d.get("variants", 0) for d in details("inverter-cleanup")),
        "ofdd.apply.calls": result.trace.metrics.get("ofdd.apply.calls", 0),
        "blif_sha256": hashlib.sha256(
            write_blif(result.network).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def engine():
    with SynthesisEngine() as engine:
        yield engine


def test_pins_cover_exactly_the_table2_circuits():
    assert sorted(GOLDEN) == all_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_circuit_matches_its_pin(engine, name):
    actual = observed(engine.synthesize(get(name), OPTIONS))
    pinned = GOLDEN[name]
    diffs = [f"{name}: {field} pinned {pinned.get(field)!r}, "
             f"got {value!r}"
             for field, value in actual.items() if pinned.get(field) != value]
    assert not diffs, "\n".join(diffs)
