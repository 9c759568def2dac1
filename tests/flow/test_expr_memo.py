"""The per-output structural expression memo (``repro.expr.memo``).

One :class:`ExprMemo` lives on each :class:`FlowContext`; strashed costs,
De Morgan phase rewrites and polarity applications of the run share it.
These tests pin what makes that safe: a shared memo answers exactly as a
fresh one per call, node numbers never go through ``Expr.__eq__`` or a
recycled ``id``, no memo outlives its run, and concurrent runs on
threads do not see each other's memos.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.engine import SynthesisEngine
from repro.expr import expression as ex
from repro.expr.demorgan import minimize_inverters, minimize_inverters_guarded
from repro.expr.memo import ExprMemo
from repro.flow.passes import apply_polarity, run_output_pipeline
from repro.network.blif import write_blif
from repro.network.build import network_from_exprs, strashed_cost
from repro.network.netlist import GateType

_OPS = (ex.And, ex.Or, ex.Xor)


def random_pool(rng, width, size):
    """Seeded DAG nodes over ``width`` inputs, built with the raw
    constructors: shared children, negated literals, constants, nested
    ``Not`` and 2-4-ary AND/OR/XOR."""
    pool = [ex.Lit(var, rng.random() < 0.5) for var in range(width)]
    pool += [ex.Const(rng.random() < 0.5)]
    for _ in range(size):
        if rng.random() < 0.2:
            pool.append(ex.Not(rng.choice(pool)))
        else:
            args = tuple(rng.choice(pool[-8:] + pool[:width])
                         for _ in range(rng.randint(2, 4)))
            pool.append(rng.choice(_OPS)(args))
    return pool


def rebuilt(node, seen=None):
    """A structurally equal copy made of distinct objects (sharing kept)."""
    seen = {} if seen is None else seen
    copy = seen.get(id(node))
    if copy is None:
        if isinstance(node, ex.Not):
            copy = ex.Not(rebuilt(node.arg, seen))
        elif isinstance(node, (ex.Lit, ex.Const)):
            copy = type(node)(*vars(node).values())
        else:
            copy = type(node)(tuple(rebuilt(c, seen) for c in node.args))
        seen[id(node)] = copy
    return copy


def fresh_network_cost(expr, width):
    """(gates, inverters) from a network built for ``expr`` alone."""
    net = network_from_exprs(width, [expr])
    inverters = sum(1 for node in net.live_nodes()
                    if net.types[node] is GateType.NOT)
    return net.two_input_gate_count(), inverters


@pytest.mark.parametrize("seed", range(6))
def test_shared_memo_answers_as_a_fresh_memo_per_call(seed):
    rng = random.Random(seed)
    calls = []
    for _ in range(10):
        width = rng.randint(1, 16)
        pool = random_pool(rng, width, rng.randint(1, 40))
        polarity = rng.getrandbits(width)
        for node in rng.sample(pool, min(4, len(pool))) + [pool[-1]]:
            calls.append((node, width, polarity))
            calls.append((rebuilt(node), width, polarity))
    rng.shuffle(calls)
    # Every check is bound to a name first: on failure pytest would print
    # the expressions involved, and the repr of a shared DAG can be
    # exponential in its size.
    memo = ExprMemo()
    for expr, width, polarity in calls:
        shared = strashed_cost(expr, width, memo)
        fresh = strashed_cost(expr, width)
        built_alone = fresh_network_cost(expr, width)
        assert shared == fresh == built_alone
        same_guarded = (minimize_inverters_guarded(expr, width, memo)
                        == minimize_inverters_guarded(expr, width))
        same_applied = (apply_polarity(expr, polarity, memo)
                        == apply_polarity(expr, polarity))
        assert same_guarded and same_applied
    # And what they answer is right: same function, polarity applied.
    for expr, width, polarity in calls:
        rewritten = minimize_inverters(expr, memo)
        applied = apply_polarity(expr, polarity, memo)
        literal_flip = ~polarity & ((1 << width) - 1)
        wrong = [
            minterm
            for minterm in rng.sample(range(1 << width), min(16, 1 << width))
            if rewritten.evaluate(minterm) != expr.evaluate(minterm)
            or applied.evaluate(minterm)
            != expr.evaluate(minterm ^ literal_flip)
        ]
        assert wrong == []


def test_equal_dags_share_a_number_without_expr_eq(monkeypatch):
    def doubling_dag(depth):
        node = ex.Lit(0)
        for level in range(depth):
            node = ex.Xor((node, ex.And((node, ex.Not(ex.Lit(level + 1))))))
        return node

    first, second = doubling_dag(60), doubling_dag(60)
    memo = ExprMemo()

    def refuse(self, other):
        raise AssertionError("Expr.__eq__ called")

    for cls in (ex.Const, ex.Lit, ex.Not, ex._Nary):
        monkeypatch.setattr(cls, "__eq__", refuse)
    distinct = first is not second
    assert distinct
    assert memo.number(first) == memo.number(second)
    assert memo.number(first.args[0]) == memo.number(second.args[0])
    assert memo.number(first) != memo.number(first.args[0])


def test_a_dropped_objects_id_is_not_aliased():
    memo = ExprMemo()
    dropped = [ex.And((ex.Lit(var), ex.Lit(var + 1))) for var in range(100)]
    numbers = {memo.number(node) for node in dropped}
    numbers |= {memo.number(arg) for node in dropped for arg in node.args}
    del dropped
    gc.collect()
    # New objects are allocated where dropped ones lived unless the memo
    # keeps them; none of these differently-built nodes may inherit a
    # dropped node's number.
    kept = []
    for var in range(1000, 1300):
        other = ex.Or((ex.Lit(var), ex.Not(ex.Lit(var + 1))))
        kept.append(other)
        for node in (other, *other.args, other.args[1].arg):
            assert memo.number(node) not in numbers
    assert memo.number(ex.And((ex.Lit(0), ex.Lit(1)))) in numbers


def _recorded_memos(monkeypatch):
    created = []
    init = ExprMemo.__init__

    def recording_init(self):
        init(self)
        created.append(weakref.ref(self))

    monkeypatch.setattr(ExprMemo, "__init__", recording_init)
    return created


def test_no_memo_outlives_its_run(monkeypatch):
    options = SynthesisOptions(verify=True, cache=False, jobs=1)
    spec = get("z4ml")
    ctx = run_output_pipeline(spec.outputs[0], options)
    memo = weakref.ref(ctx.memo)
    variants = ctx.variants
    del ctx
    gc.collect()
    assert variants and memo() is None

    created = _recorded_memos(monkeypatch)
    with SynthesisEngine() as engine:
        result = engine.synthesize(spec, options)
    gc.collect()
    assert result.verify
    assert len(created) >= spec.num_outputs
    assert all(ref() is None for ref in created)


def test_threads_synthesize_as_serial_runs():
    # More threads than the 2 cores CI runs on, and a short switch
    # interval, so the runs interleave inside their passes.
    options = SynthesisOptions(verify=True, cache=False, jobs=1)
    groups = [["z4ml", "rd53", "cm82a"], ["adr4", "f51m", "majority"],
              ["rd73", "bcd-div3", "sqr6"]]
    with SynthesisEngine() as engine:
        serial = {name: write_blif(engine.synthesize(get(name), options)
                                   .network)
                  for group in groups for name in group}
        start = threading.Barrier(len(groups))
        threaded: dict[str, list[str]] = {name: [] for name in serial}
        errors: list[BaseException] = []

        def work(group):
            try:
                start.wait(timeout=60)
                for _ in range(2):
                    for name in group:
                        blif = write_blif(
                            engine.synthesize(get(name), options).network)
                        threaded[name].append(blif)
            except Exception as err:  # reported by the main thread
                errors.append(err)

        threads = [threading.Thread(target=work, args=(group,))
                   for group in groups]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert threaded == {name: [blif, blif] for name, blif in serial.items()}
