"""Expressions keep hash and equality across a ``spawn`` interpreter.

Each node caches its hash in its ``__dict__``, so the cached value
travels with a pickled node.  It must therefore be the same in every
interpreter, not only in forks of the one that computed it.
"""

import concurrent.futures
import multiprocessing

from repro.expr.expression import And, Const, Lit, Not, Or, Xor


def build():
    """A DAG with every node class and shared sub-expressions."""
    a, b, c = Lit(0), Lit(1, negated=True), Lit(2)
    ab = And((a, b))
    mixed = Xor((ab, c, Not(Or((a, c)))))
    return Or((And((mixed, ab, Const(True))), Not(mixed), Const(False)))


def same(shipped, local) -> list[bool]:
    return [hash(shipped) == hash(local), shipped == local,
            shipped in {local}]


def _in_child(shipped):
    local = build()
    hash(local)
    return same(shipped, local), local


def test_round_trip_through_a_spawn_child():
    local = build()
    hash(local)  # cache every node's hash before it is pickled
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=context) as pool:
        checks_in_child, from_child = pool.submit(
            _in_child, local).result(timeout=120)
    assert checks_in_child == [True, True, True]
    assert same(from_child, local) == [True, True, True]
