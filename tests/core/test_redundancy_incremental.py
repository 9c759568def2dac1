"""Incremental re-analysis in the redundancy remover (paper Section 4).

The remover analyses its tree once; after every pass — one literal
rewrite or a batch of XOR rewrites — it updates that analysis in place
instead of re-deriving it over the whole tree.  ``_CheckedRemover``
re-analyses from scratch after every such update and compares the two
states; ``_FullRemover`` is the from-scratch loop itself, whose output
and counters the incremental remover must reproduce exactly.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BddManager
from repro.circuits import get
from repro.circuits.generators import make_comparator, make_multiplier
from repro.core import tree as tr
from repro.core.factor_cube import factor_cubes
from repro.core.options import ControllabilityEngine, SynthesisOptions
from repro.core.redundancy import RedundancyRemover
from repro.core.tree import TNode
from repro.engine import SynthesisEngine
from repro.expr.esop import FprmForm
from repro.flow import passes
from repro.network.blif import write_blif

ENGINES = list(ControllabilityEngine)
_TABLES = ("values", "bdds", "support", "observable", "odc_zero",
           "odc_parts", "parent")


def _check_fresh(remover, analysis):
    """The tree is normalized and every table equals a fresh analysis's;
    returns the fresh analysis."""
    _, changed = tr.simplify_tree_tracked(remover.root)
    assert not changed, "the local re-fold left the tree unnormalized"
    fresh = remover._analyze()
    for name in _TABLES:
        assert getattr(analysis, name) == getattr(fresh, name), name
    assert analysis.odcs.keys() <= fresh.values.keys()
    for key, odc in analysis.odcs.items():
        assert remover._odc(key, fresh) == odc
    return fresh


class _CheckedRemover(RedundancyRemover):
    """Checks every incremental update against a fresh analysis."""

    literal_updates = 0
    xor_updates = 0

    def _update(self, analysis, rewrites):
        xor = rewrites[0][1].op == tr.XOR
        analysis = super()._update(analysis, rewrites)
        if xor:
            self.xor_updates += 1
        else:
            self.literal_updates += 1
        fresh = _check_fresh(self, analysis)
        self._check_memos(analysis, fresh)
        assert analysis.bdds[id(self.root)] == self._original_bdd
        return analysis

    def _check_memos(self, analysis, fresh):
        """Every memoised decision is what a fresh decision would give,
        and every clean subtree holds only memoised decisions."""
        nodes = {id(node): node for node in self.root.iter_nodes()}
        stats = self.stats
        for key, memo in analysis.xor_memo.items():
            self.stats = dataclasses.replace(stats)
            assert self._try_reduce_xor(nodes[key], fresh) is None
            delta = (self.stats.decided_by_simulation
                     - stats.decided_by_simulation,
                     self.stats.decided_by_engine - stats.decided_by_engine)
            assert (delta, self.stats.reverted) == (memo, stats.reverted)
        for key in analysis.lit_clean:
            for node in nodes[key].iter_nodes():
                if node.op == tr.LIT:
                    assert id(node) in analysis.lit_clean
                    self.stats = dataclasses.replace(stats)
                    assert self._try_reduce_literal(node, fresh) is None
                    assert self.stats.reverted == stats.reverted
        self.stats = stats
        for key, total in analysis.xor_clean.items():
            xors = [id(n) for n in nodes[key].iter_nodes() if n.op == tr.XOR]
            assert all(k in analysis.xor_memo for k in xors)
            assert total == tuple(
                sum(analysis.xor_memo[k][i] for k in xors) for i in (0, 1))


class _FullRemover(RedundancyRemover):
    """Re-simplifies and re-analyses the whole tree after every pass."""

    def _update(self, analysis, rewrites):
        self.root = tr.simplify_tree(self.root)
        return self._analyze()


@st.composite
def _forms(draw):
    n = draw(st.sampled_from([5, 6]))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=4,
                         max_size=20))
    return FprmForm.from_masks(n, (1 << n) - 1, masks)


def _remove(cls, form, engine):
    tree = tr.tree_from_expr(factor_cubes(list(form.cubes)))
    remover = cls(tree, form.n, form, SynthesisOptions(controllability=engine))
    return remover.run().format(), remover.stats, remover


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
@given(form=_forms())
@settings(max_examples=60, deadline=None)
def test_incremental_state_matches_fresh_analysis(engine, form):
    checked = _remove(_CheckedRemover, form, engine)
    full = _remove(_FullRemover, form, engine)
    assert checked[:2] == full[:2]


def _scenario(name):
    """A normalized tree, the rewrites of one batch as (node, replacement)
    in scan order, and the tree expected after the update."""
    a, b, c, d = (TNode.lit(var) for var in range(4))
    x1, x2 = TNode.gate(tr.XOR, a, b), TNode.gate(tr.XOR, c, d)
    if name == "const-detaches-pending":  # AND(0, x2) folds x2 away
        return (TNode.gate(tr.AND, x1, x2),
                [(x1, TNode.const(0)), (x2, TNode.gate(tr.OR, c, d))], "0")
    if name == "const-detaches-updated":  # x2 updated, then folded away
        return (TNode.gate(tr.AND, x2, x1),
                [(x2, TNode.gate(tr.OR, c, d)), (x1, TNode.const(0))], "0")
    if name == "pending-moves-up":  # XOR(0, x2) folds to x2
        return (TNode.gate(tr.XOR, x1, x2),
                [(x1, TNode.const(0)),
                 (x2, TNode.gate(tr.AND, c, TNode.invert(d)))],
                "(l2 & !(l3))")
    if name == "new-inverter-folds":  # g·h̄ with h = NOT(l1 ^ l2)
        x = TNode.gate(tr.XOR, a, TNode.invert(TNode.gate(tr.XOR, b, c)))
        return (TNode.gate(tr.OR, x, d),
                [(x, TNode.gate(tr.AND, a, TNode.invert(x.kids[1])))],
                "((l0 & (l1 ^ l2)) | l3)")
    if name == "child-takes-place":
        g = TNode.gate(tr.AND, a, b)
        x = TNode.gate(tr.XOR, g, c)
        return TNode.gate(tr.OR, x, d), [(x, g)], "((l0 & l1) | l3)"
    if name == "literal-to-inverter":  # XOR(1, g) folds to NOT(g)
        return (TNode.gate(tr.XOR, a, TNode.gate(tr.AND, b, c)),
                [(a, TNode.const(1))], "!((l1 & l2))")
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "const-detaches-pending", "const-detaches-updated", "pending-moves-up",
    "new-inverter-folds", "child-takes-place", "literal-to-inverter",
])
def test_batch_update_matches_fresh_analysis(name):
    """Each rewrite is applied in place, as the scan applies it, and the
    batch update must leave the analysis a fresh one would give."""
    root, pairs, expected = _scenario(name)
    remover = RedundancyRemover(root, 4, None, SynthesisOptions())
    remover._bdd = BddManager(4)
    analysis = remover._analyze()
    rewrites = []
    for node, new in pairs:
        before = TNode(node.op, list(node.kids), node.var)
        node.replace_with(new)
        rewrites.append((node, before, new))
    analysis = remover._update(analysis, rewrites)
    assert remover.root.format() == expected
    _check_fresh(remover, analysis)


def _flow(spec, cls, monkeypatch, **option_kwargs):
    """BLIF digest, every remover's stats in call order, the removers."""
    removers = []

    class Recording(cls):
        def run(self):
            removers.append(self)
            return super().run()

    monkeypatch.setattr(passes, "RedundancyRemover", Recording)
    options = SynthesisOptions(trace=False, verify=True, cache=False,
                               jobs=1, **option_kwargs)
    with SynthesisEngine() as engine:
        result = engine.synthesize(spec, options)
    digest = hashlib.sha256(write_blif(result.network).encode()).hexdigest()
    return digest, [dataclasses.astuple(r.stats) for r in removers], removers


def _checked_against_full(spec, engine, monkeypatch):
    """Runs the flow with checked and with from-scratch removers; both
    must give the same BLIF and counters.  Returns the checked removers."""
    digest, calls, removers = _flow(spec, _CheckedRemover, monkeypatch,
                                    controllability=engine)
    assert _flow(spec, _FullRemover, monkeypatch,
                 controllability=engine)[:2] == (digest, calls)
    return removers


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
def test_multiplier_literal_cleanup_checked(engine, monkeypatch):
    removers = _checked_against_full(make_multiplier(4), engine, monkeypatch)
    assert sum(r.literal_updates for r in removers) > 0, \
        "literal cleanup never fired"
    assert sum(r.xor_updates for r in removers) > 0, "no XOR batch applied"


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
def test_rd84_reverted_batches_checked(engine, monkeypatch):
    removers = _checked_against_full(get("rd84"), engine, monkeypatch)
    assert sum(r.xor_updates for r in removers) > 0, "no XOR batch applied"
    if engine is ControllabilityEngine.BDD:
        assert sum(r.stats.reverted for r in removers) > 0, \
            "no batch fell back to one-at-a-time application"


# BLIF digests and per-remover ReductionStats recorded from the
# from-scratch remover (bdd engine, verify on, cache off, one job).
GOLDEN = {
    "mult5": (
        "4a7c7e4ec2d42fa771ec048be529a351db81e4fd2897a98e0c9481d92ceafc76",
        [(0, 0, 0, 0, 0, 0, 0, 0, 0)] * 6 + [
            (0, 0, 0, 0, 0, 8, 1, 0, 0), (0, 0, 0, 0, 0, 6, 0, 0, 0),
            (0, 0, 0, 0, 0, 8, 1, 0, 0), (0, 0, 0, 0, 0, 20, 1, 0, 0),
            (1, 1, 0, 0, 2, 74, 7, 0, 0), (0, 0, 0, 0, 0, 20, 1, 0, 0),
            (0, 0, 0, 0, 0, 53, 7, 0, 0), (6, 1, 2, 0, 3, 232, 29, 0, 0),
            (0, 0, 0, 0, 0, 57, 6, 0, 0), (0, 0, 0, 0, 0, 150, 21, 0, 0),
            (21, 2, 5, 0, 9, 1325, 163, 0, 0), (5, 0, 0, 0, 0, 391, 56, 0, 0),
            (9, 1, 0, 1, 2, 1362, 51, 0, 0), (41, 7, 12, 1, 16, 3945, 75, 0, 0),
            (18, 0, 0, 3, 0, 1804, 86, 6, 0), (19, 2, 1, 3, 6, 2580, 30, 0, 0),
            (48, 9, 18, 2, 27, 6907, 98, 0, 0), (27, 3, 0, 0, 10, 4806, 30, 0, 0),
            (16, 3, 0, 3, 7, 2004, 27, 0, 0), (32, 13, 13, 0, 29, 6520, 71, 0, 0),
            (18, 0, 9, 1, 8, 3292, 38, 0, 0), (16, 8, 2, 5, 17, 180, 45, 0, 0),
            (10, 16, 18, 1, 40, 2374, 209, 0, 0), (11, 2, 2, 0, 6, 598, 17, 0, 0),
        ],
    ),
    "cmp6": (
        "d982f271859c985f4ed0e35668110cb54415966ef824d4f1aacedcd39ac51bd7",
        [
            (62, 0, 0, 0, 0, 124, 62, 0, 0), (62, 0, 0, 0, 0, 124, 62, 0, 0),
            (10, 0, 0, 0, 0, 20, 10, 0, 0), (62, 0, 0, 0, 0, 124, 62, 0, 0),
            (62, 0, 0, 0, 0, 124, 62, 0, 0), (10, 0, 0, 0, 0, 20, 10, 0, 0),
            (0, 0, 0, 0, 0, 12, 6, 0, 0), (0, 0, 0, 0, 0, 158, 31, 0, 0),
            (0, 0, 0, 0, 0, 12, 6, 0, 0),
        ],
    ),
    "mlp4": (
        "88969e1ac3c3701e04dd052568f40fbf56c918b3b27112f08fd2ade32c8aa35f",
        [(0, 0, 0, 0, 0, 0, 0, 0, 0)] * 6 + [
            (0, 0, 0, 0, 0, 8, 1, 0, 0), (0, 0, 0, 0, 0, 6, 0, 0, 0),
            (0, 0, 0, 0, 0, 8, 1, 0, 0), (0, 0, 0, 0, 0, 20, 1, 0, 0),
            (1, 1, 0, 0, 2, 74, 7, 0, 0), (0, 0, 0, 0, 0, 20, 1, 0, 0),
            (0, 0, 0, 0, 0, 46, 5, 0, 0), (6, 1, 2, 0, 3, 214, 29, 0, 0),
            (0, 0, 0, 0, 0, 50, 4, 0, 0), (5, 0, 0, 0, 1, 215, 37, 0, 0),
            (12, 1, 4, 0, 4, 331, 35, 0, 0), (3, 0, 0, 0, 2, 335, 37, 0, 0),
            (5, 1, 1, 1, 1, 337, 11, 0, 0), (12, 2, 4, 0, 6, 533, 22, 0, 0),
            (11, 0, 0, 0, 2, 322, 11, 0, 0), (8, 0, 0, 4, 1, 16, 20, 0, 0),
            (8, 0, 8, 0, 0, 24, 24, 0, 0), (7, 0, 2, 0, 0, 16, 11, 0, 0),
        ],
    ),
}

_SPECS = {
    "mult5": lambda: make_multiplier(5),
    "cmp6": lambda: make_comparator(6),
    "mlp4": lambda: get("mlp4"),
    "rd84": lambda: get("rd84"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_blif_and_stats(name, monkeypatch):
    digest, calls, _ = _flow(_SPECS[name](), RedundancyRemover, monkeypatch)
    assert (digest, calls) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_one_analysis_and_one_simplify_per_remover(name, monkeypatch):
    """Every later pass updates the first analysis in place: a remover
    that re-analysed or re-simplified the whole tree fails here."""
    simplify = tr.simplify_tree_tracked
    running = []

    class Counting(RedundancyRemover):
        analyses = simplifies = 0

        def run(self):
            running.append(self)
            try:
                return super().run()
            finally:
                running.pop()

        def _analyze(self):
            self.analyses += 1
            return super()._analyze()

    def counted(root):
        running[-1].simplifies += 1
        return simplify(root)

    monkeypatch.setattr(tr, "simplify_tree_tracked", counted)
    removers = _flow(_SPECS[name](), Counting, monkeypatch)[2]
    assert removers
    assert {(r.analyses, r.simplifies) for r in removers} == {(1, 1)}
