"""Tests for the expression AST and smart constructors."""

from hypothesis import given
from hypothesis import strategies as st

from repro.expr import expression as ex

N = 4


@st.composite
def exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return ex.Lit(draw(st.integers(0, N - 1)), draw(st.booleans()))
        if kind == 1:
            return ex.Const(draw(st.booleans()))
        return ex.Lit(draw(st.integers(0, N - 1)))
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return ex.not_(draw(exprs(depth=depth - 1)))
    args = draw(st.lists(exprs(depth=depth - 1), min_size=2, max_size=3))
    return {"and": ex.and_, "or": ex.or_, "xor": ex.xor_}[op](args)


@given(exprs())
def test_smart_constructors_preserve_semantics_vs_raw(e):
    # Rebuild through the smart constructors and compare truth tables.
    def rebuild(node):
        if isinstance(node, ex.Const) or isinstance(node, ex.Lit):
            return node
        if isinstance(node, ex.Not):
            return ex.not_(rebuild(node.arg))
        kids = [rebuild(k) for k in node.children()]
        return {ex.And: ex.and_, ex.Or: ex.or_, ex.Xor: ex.xor_}[type(node)](kids)

    rebuilt = rebuild(e)
    for m in range(1 << N):
        assert rebuilt.evaluate(m) == e.evaluate(m)


def test_and_constant_folding():
    a = ex.Lit(0)
    assert ex.and_([a, ex.TRUE]) == a
    assert ex.and_([a, ex.FALSE]) == ex.FALSE
    assert ex.and_([a, ex.not_(a)]) == ex.FALSE
    assert ex.and_([a, a]) == a


def test_or_constant_folding():
    a = ex.Lit(0)
    assert ex.or_([a, ex.FALSE]) == a
    assert ex.or_([a, ex.TRUE]) == ex.TRUE
    assert ex.or_([a, ex.not_(a)]) == ex.TRUE


def test_xor_cancellation():
    a, b = ex.Lit(0), ex.Lit(1)
    assert ex.xor_([a, a]) == ex.FALSE
    assert ex.xor_([a, a, b]) == b
    assert ex.xor_([a, ex.TRUE]) == ex.Lit(0, True)


def test_not_involution():
    a = ex.Lit(0)
    assert ex.not_(ex.not_(a)) == a
    assert ex.not_(ex.TRUE) == ex.FALSE


def test_gate_counting_convention():
    a, b, c = ex.Lit(0), ex.Lit(1), ex.Lit(2)
    assert ex.and_([a, b, c]).two_input_gate_count() == 2
    assert ex.xor_([a, b]).two_input_gate_count() == 3
    assert ex.xor_([a, b, c]).two_input_gate_count() == 6
    assert ex.not_(a).two_input_gate_count() == 0


def test_xor2_preserves_structure():
    a, b, c, d = (ex.Lit(i) for i in range(4))
    inner1 = ex.xor2(a, b)
    inner2 = ex.xor2(c, d)
    top = ex.xor2(inner1, inner2)
    assert isinstance(top, ex.Xor)
    assert top.args == (inner1, inner2)  # not flattened


def test_xor2_pulls_out_negation():
    a, b = ex.Lit(0, True), ex.Lit(1)
    e = ex.xor2(a, b)
    assert isinstance(e, ex.Not)
    assert isinstance(e.arg, ex.Xor)


def test_xor_join_and_chain_semantics():
    lits = [ex.Lit(i) for i in range(4)]
    joined = ex.xor_join(list(lits))
    chained = ex.xor_chain(list(lits))
    for m in range(16):
        want = bin(m).count("1") & 1
        assert joined.evaluate(m) == want
        assert chained.evaluate(m) == want


def test_xor_chain_exposes_suffixes():
    lits = [ex.Lit(i) for i in range(4)]
    full = ex.xor_chain(list(lits))
    suffix = ex.xor_chain(list(lits[1:]))
    assert full.args[1] == suffix  # right-nested share


def test_format_parenthesization():
    e = ex.and_([ex.Lit(0), ex.or_([ex.Lit(1), ex.Lit(2)])])
    assert e.format() == "x0·(x1 + x2)"


def _doubling_dag(depth, leaf=0):
    """Each level uses the previous one twice: 2**depth paths, depth+1
    distinct nodes."""
    node = ex.Lit(leaf)
    for level in range(depth):
        node = ex.And((node, ex.Or((node, ex.Not(ex.Lit(level + 1))))))
    return node


def test_equality_is_linear_on_separately_built_dags():
    import time

    # Comparisons are bound to names first: on failure pytest would
    # otherwise print the operands, and the repr of a doubling DAG is
    # exponential.
    first, second = _doubling_dag(40), _doubling_dag(40)
    assert first is not second
    started = time.perf_counter()
    equal, unequal = first == second, first != second
    elapsed = time.perf_counter() - started
    assert equal and not unequal
    assert elapsed < 0.5
    # One changed leaf, at the bottom of every path, breaks equality.
    changed_leaf = _doubling_dag(40) != _doubling_dag(40, leaf=7)
    assert changed_leaf
    negated = ex.Not(_doubling_dag(40)) == ex.Not(_doubling_dag(40))
    assert negated
    assert ex.And((ex.Lit(0), ex.Lit(1))) != ex.Or((ex.Lit(0), ex.Lit(1)))


def test_equality_walk_decides_when_every_hash_collides():
    def collide(node, seen):
        if id(node) not in seen:
            seen.add(id(node))
            object.__setattr__(node, "_cached_hash", 0)
            for child in node.children():
                collide(child, seen)
        return node

    base = collide(_doubling_dag(40), set())
    equal = base == collide(_doubling_dag(40), set())
    changed_leaf = base != collide(_doubling_dag(40, leaf=7), set())
    assert equal and changed_leaf
    wider = collide(ex.And((ex.Lit(0), ex.Lit(1), ex.Lit(2))), set())
    assert collide(ex.And((ex.Lit(0), ex.Lit(1))), set()) != wider
