"""Equivalence checking — our stand-in for the SIS ``verify`` command.

Three engines, picked by size:

* **exhaustive simulation** for up to 16 primary inputs (bit-parallel, so
  65 536 vectors are cheap) — a complete proof;
* **BDD comparison** per output cone when every cone stays within the node
  budget — a complete proof for wide but shallow circuits;
* **random + corner simulation** as the last resort for cones whose BDDs
  blow up — a strong check, flagged as such in the result.

Every synthesis result in the test suite and harness goes through
:func:`equivalent_to_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bdd.manager import BddManager
from repro.errors import ReproError
from repro.network.netlist import GateType, Network
from repro.network.simulate import exhaustive_inputs, random_inputs, simulate
from repro.obs.spans import span as obs_span
from repro.spec import CircuitSpec

_EXHAUSTIVE_MAX_INPUTS = 16
_BDD_NODE_BUDGET = 400_000
_RANDOM_VECTORS = 4096


@dataclass(frozen=True)
class VerifyResult:
    equivalent: bool
    method: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


def equivalent_to_spec(net: Network, spec: CircuitSpec) -> VerifyResult:
    """Check a synthesized network against its specification."""
    with obs_span("equivalence-check", category="algo") as node:
        result = _equivalent_to_spec(net, spec)
        if node is not None:
            node.set(circuit=spec.name, method=result.method,
                     equivalent=result.equivalent)
        return result


def _equivalent_to_spec(net: Network, spec: CircuitSpec) -> VerifyResult:
    if net.num_inputs != spec.num_inputs or net.num_outputs != spec.num_outputs:
        return VerifyResult(False, "interface", "I/O count mismatch")
    if spec.num_inputs <= _EXHAUSTIVE_MAX_INPUTS:
        inputs = exhaustive_inputs(spec.num_inputs)
        got = simulate(net, inputs)
        want = spec.simulate(inputs)
        return _compare(got, want, spec, "exhaustive")
    try:
        return _bdd_check(net, spec)
    except ReproError:
        inputs = random_inputs(spec.num_inputs, _RANDOM_VECTORS,
                               f"verify:{spec.name}")
        got = simulate(net, inputs)
        want = spec.simulate(inputs)
        return _compare(got, want, spec, "random-simulation")


def _compare(got: np.ndarray, want: np.ndarray, spec: CircuitSpec,
             method: str) -> VerifyResult:
    mismatch = np.nonzero((got != want).any(axis=1))[0]
    if mismatch.size:
        names = ", ".join(spec.output_names[int(i)] for i in mismatch[:4])
        return VerifyResult(False, method, f"outputs differ: {names}")
    return VerifyResult(True, method)


def _bdd_check(net: Network, spec: CircuitSpec) -> VerifyResult:
    """Per-output BDD comparison over the output's *local* support.

    Using the support order of each output as the variable order keeps
    decision diagrams small for circuits whose specs carry a good order
    (interleaved adder operands, mux selects), where a single global
    identity-ordered manager would blow up.
    """
    for index, output in enumerate(spec.outputs):
        local_of = {var: j for j, var in enumerate(output.support)}
        manager = BddManager(output.width, node_limit=_BDD_NODE_BUDGET)
        got = _cone_bdd(net, net.outputs[index], local_of, manager)
        if got is None:
            raise ReproError("output cone uses a PI outside the spec support")
        want = _spec_output_bdd(output, manager)
        if got != want:
            return VerifyResult(False, "bdd", f"output {output.name} differs")
    return VerifyResult(True, "bdd")


def _cone_bdd(net: Network, root: int, local_of: dict[int, int],
              manager: BddManager) -> int | None:
    values: dict[int, int] = {0: 0, 1: 1}

    def walk(node: int) -> int | None:
        if node in values:
            return values[node]
        gate = net.type_of(node)
        if gate is GateType.PI:
            local = local_of.get(net.pi_index(node))
            if local is None:
                return None
            result = manager.var(local)
        elif gate is GateType.NOT:
            child = walk(net.fanin(node)[0])
            if child is None:
                return None
            result = manager.not_(child)
        else:
            a = walk(net.fanin(node)[0])
            b = walk(net.fanin(node)[1])
            if a is None or b is None:
                return None
            if gate is GateType.AND:
                result = manager.and_(a, b)
            elif gate is GateType.OR:
                result = manager.or_(a, b)
            else:
                result = manager.xor_(a, b)
        values[node] = result
        return result

    return walk(root)


def _spec_output_bdd(output, manager: BddManager) -> int:
    """BDD of one spec output over its local variables (0..width-1)."""
    if output.expr is not None:
        return manager.from_expr(output.expr)
    if output.cover is not None:
        return manager.from_cover(output.cover)
    table = output.local_table()
    memo: dict[bytes, int] = {}

    def build(bits, level: int) -> int:
        if bits.max(initial=0) == 0:
            return 0
        if bits.min(initial=1) == 1:
            return 1
        key = bits.tobytes()
        cached = memo.get(key)
        if cached is not None:
            return cached
        half = len(bits) // 2
        low = build(bits[:half], level + 1)
        high = build(bits[half:], level + 1)
        var = output.width - 1 - level
        node = manager.ite(manager.var(var), high, low)
        memo[key] = node
        return node

    # Split on the highest local variable first (index bit width-1).
    return build(table.bits, 0)


def counterexample(net: Network, spec: CircuitSpec) -> int | None:
    """A global input minterm on which ``net`` and ``spec`` disagree.

    Exhaustive up to :data:`_EXHAUSTIVE_MAX_INPUTS` primary inputs,
    random sampling beyond; returns ``None`` when no disagreement is
    found (which, past the exhaustive range, is not a proof).  The fuzz
    harness attaches the witness to every mismatch report so a failure
    can be replayed without rerunning the differential pair.
    """
    if net.num_inputs != spec.num_inputs or net.num_outputs != spec.num_outputs:
        return None
    if spec.num_inputs <= _EXHAUSTIVE_MAX_INPUTS:
        inputs = exhaustive_inputs(spec.num_inputs)
    else:
        inputs = random_inputs(spec.num_inputs, _RANDOM_VECTORS,
                               f"counterexample:{spec.name}")
    got = simulate(net, inputs)
    want = spec.simulate(inputs)
    columns = np.nonzero((got != want).any(axis=0))[0]
    if not columns.size:
        return None
    column = int(columns[0])
    minterm = 0
    for i in range(spec.num_inputs):
        if int(inputs[i, column]):
            minterm |= 1 << i
    return minterm


def networks_equivalent(a: Network, b: Network) -> VerifyResult:
    """Structural-interface plus functional comparison of two networks."""
    if a.num_inputs != b.num_inputs or a.num_outputs != b.num_outputs:
        return VerifyResult(False, "interface", "I/O count mismatch")
    if a.num_inputs <= _EXHAUSTIVE_MAX_INPUTS:
        inputs = exhaustive_inputs(a.num_inputs)
        method = "exhaustive"
    else:
        inputs = random_inputs(a.num_inputs, _RANDOM_VECTORS, f"nn:{a.name}:{b.name}")
        method = "random-simulation"
    got_a = simulate(a, inputs)
    got_b = simulate(b, inputs)
    if (got_a != got_b).any():
        return VerifyResult(False, method, "outputs differ")
    return VerifyResult(True, method)
