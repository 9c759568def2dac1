"""XOR-gate redundancy removal (paper Section 4).

The analysis runs on the tree network ``N_x`` of one output (leaves are
positive literals, gates AND/XOR from factorization).  For every 2-input
XOR gate ``f = g ⊕ h`` we ask which of the input patterns (0,1), (1,0),
(1,1) are *relevant* — producible by some primary-input pattern whose
effect at ``f`` is observable at the output ((0,0) is always producible,
by the all-zero pattern AZ, Property 1).  Irrelevant patterns license the
paper's reductions (Table 1 / Properties 3-4):

======================  =============================
relevant patterns        replacement for ``g ⊕ h``
======================  =============================
(0,1) (1,0) (1,1)        keep XOR
(0,1) (1,0)              ``g + h``        (Property 3)
(0,1) (1,1)              ``ḡ·h``          (Property 4)
(1,0) (1,1)              ``g·h̄``          (Property 4)
(0,1)                    ``h``
(1,0)                    ``g``
(1,1) or none            constant 0
======================  =============================

Observability is the tree ODC: a pattern at ``f`` is observable unless an
AND/OR gate on the unique path to the output has a controlling side input
(Property 5: XOR gates never block).  Reducing a gate changes the don't
cares of everything below it — the paper's domino effect toward the PIs
(Properties 6-7) — so we apply one reduction at a time, root-first, and
re-derive all conditions before the next one.  The tree is analysed in
full once; after each rewrite only the conditions that can change are
re-derived: the rewritten node's subtree, its path to the root and the
subtrees hanging off that path (``RedundancyRemover._update_after_rewrite``).

Relevance is decided in two stages, mirroring the paper:

1. **pattern simulation** — the AZ/OC/AO/SA1 set is simulated bit-parallel
   (Python big ints, one bit per pattern); a pattern pair observed with the
   gate observable proves relevance with no further work (Properties 8-9
   guarantee this settles at least two of the three pairs per gate);
2. an **engine** for the leftovers: exact BDD satisfiability (our sound
   replacement for the paper's space-cut cube-parity enumeration), an
   explicit enumeration of cube-subset-union patterns, or nothing
   (simulation-only).  Non-BDD engines are re-checked: a candidate
   reduction that fails the exact equivalence test is rolled back.

After the XOR pass, first-level AND fanins get the same treatment: a
literal leaf whose stuck-at-1 (stuck-at-0) fault is untestable is replaced
by constant 1 (0) — the paper's OC/SA1 cleanup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bdd.manager import BddManager
from repro.core import tree as tr
from repro.core.options import (
    BDD_NODE_BUDGET,
    ENUMERATION_CUBE_LIMIT,
    ControllabilityEngine,
    SynthesisOptions,
)
from repro.core.parity_analysis import cube_union_patterns
from repro.core.patterns import full_pattern_set
from repro.core.tree import TNode
from repro.errors import ReproError
from repro.expr.esop import FprmForm


@dataclass
class ReductionStats:
    """What the remover did and which stage decided it."""

    xor_to_or: int = 0
    xor_to_and: int = 0
    xor_to_child: int = 0
    xor_to_const: int = 0
    literals_removed: int = 0
    decided_by_simulation: int = 0
    decided_by_engine: int = 0
    reverted: int = 0
    skipped_no_engine: int = 0

    def total_reductions(self) -> int:
        return (
            self.xor_to_or + self.xor_to_and + self.xor_to_child
            + self.xor_to_const + self.literals_removed
        )


@dataclass
class _Analysis:
    """Derived data per node, keyed by ``id``: values, BDDs, supports,
    observability, parents, and memoised scan decisions.

    ``values``, ``bdds`` and ``support`` depend on a node's subtree
    only; ``observable`` and the ODC tables on its path to the root.
    ODC BDDs are materialized lazily (see ``RedundancyRemover._odc``):
    ``odcs`` holds only the roots plus whatever has been demanded so
    far, ``odc_zero`` answers the cheap ``odc == 0`` filter without any
    BDD work, and ``odc_parts`` records how to build the rest on
    demand — ``(parent_key,)`` for XOR/NOT children (same ODC) or
    ``(parent_key, sibling_bdd, "and"|"or")`` for AND/OR children.

    A failed decision is a function of these tables alone, so it holds
    until one of its node's entries changes.  ``xor_memo`` keeps the
    ``(decided_by_simulation, decided_by_engine)`` delta of each failed
    XOR decision, ``xor_clean`` the summed delta of every subtree whose
    XOR decisions are all memoised, and ``lit_clean`` the subtrees whose
    literals all failed; the scans skip those subtrees and replay the
    deltas.
    """

    values: dict[int, int] = field(default_factory=dict)
    observable: dict[int, int] = field(default_factory=dict)
    bdds: dict[int, int] = field(default_factory=dict)
    support: dict[int, int] = field(default_factory=dict)
    parent: dict[int, TNode | None] = field(default_factory=dict)
    odcs: dict[int, int] = field(default_factory=dict)
    odc_zero: dict[int, bool] = field(default_factory=dict)
    odc_parts: dict[int, tuple] = field(default_factory=dict)
    xor_memo: dict[int, tuple[int, int]] = field(default_factory=dict)
    xor_clean: dict[int, tuple[int, int]] = field(default_factory=dict)
    lit_clean: set[int] = field(default_factory=set)

    def forget(self, key: int) -> None:
        """Drop every entry of a node that left the tree (CPython reuses
        the ``id`` of a freed object, so none may outlive its node)."""
        for table in (self.values, self.observable, self.bdds, self.support,
                      self.parent, self.odcs, self.odc_zero, self.odc_parts,
                      self.xor_memo, self.xor_clean):
            table.pop(key, None)
        self.lit_clean.discard(key)

    def forget_decisions(self, key: int) -> None:
        """Drop a node's memoised decision and subtree aggregates."""
        self.xor_memo.pop(key, None)
        self.xor_clean.pop(key, None)
        self.lit_clean.discard(key)


@dataclass(frozen=True)
class SimulationPatterns:
    """The literal-space patterns a remover simulates, one bit each, and
    every literal's value over them (bit ``k`` of ``columns[var]`` is
    literal ``var`` in ``patterns[k]``).

    They depend on the FPRM form and the options alone, so the removers
    of one output's candidates share one set: a flow run builds it once
    per output and keeps it on its ``FlowContext``; a remover made
    without one builds its own.
    """

    patterns: tuple[int, ...]
    columns: tuple[int, ...]

    @classmethod
    def build(cls, n: int, form: FprmForm | None,
              options: SynthesisOptions) -> SimulationPatterns:
        if form is not None and form.num_cubes <= options.cube_limit:
            patterns = full_pattern_set(form)
        else:
            patterns = [0, (1 << n) - 1]
        if options.controllability is ControllabilityEngine.ENUMERATION \
                and form is not None:
            try:
                unions = cube_union_patterns(form, ENUMERATION_CUBE_LIMIT)
            except ValueError:
                unions = []  # a form over the limit adds no patterns
            seen: set[int] = set()
            patterns = [p for p in patterns + unions
                        if not (p in seen or seen.add(p))]
        columns = []
        for var in range(n):
            column = 0
            for k, pattern in enumerate(patterns):
                if (pattern >> var) & 1:
                    column |= 1 << k
            columns.append(column)
        return cls(tuple(patterns), tuple(columns))


#: One applied rewrite: the node, a copy of it from before, and the node
#: whose fields it took (``TNode.replace_with`` both ways undoes/redoes it).
_Rewrite = tuple[TNode, TNode, TNode]


class RedundancyRemover:
    """Drives the reduction loop on one output tree."""

    def __init__(self, root: TNode, n: int, form: FprmForm | None,
                 options: SynthesisOptions,
                 patterns: SimulationPatterns | None = None):
        self.root = root
        self.n = n
        self.options = options
        self.stats = ReductionStats()
        if patterns is None:
            patterns = SimulationPatterns.build(n, form, options)
        self._all_bits = (1 << len(patterns.patterns)) - 1
        self._lit_cols = patterns.columns
        self._bdd: BddManager | None = None
        self._original_bdd: int | None = None

    # -- public entry ---------------------------------------------------------

    def run(self) -> TNode:
        """Reduce to fixpoint; returns the (mutated) root."""
        # One full analysis of the normalized tree; every pass then
        # updates it in place, rewrite by rewrite, keeping the tree
        # normalized as it goes.
        self.root = tr.simplify_tree(self.root)
        try:
            self._bdd = BddManager(self.n, node_limit=BDD_NODE_BUDGET)
            analysis = self._analyze()
            self._original_bdd = analysis.bdds[id(self.root)]
        except ReproError:
            # BDD blow-up: no exact oracle, leave the tree as it is.
            self.stats.skipped_no_engine += 1
            return self.root
        while True:
            try:
                rewrites = self._reduce_pass(analysis)
                if not rewrites:
                    break
                analysis = self._update(analysis, rewrites)
            except ReproError:
                # A pass cut short may leave its rewrites unfolded.
                self.stats.skipped_no_engine += 1
                self.root = tr.simplify_tree(self.root)
                break
        return self.root

    # -- analysis ------------------------------------------------------------------

    def _analyze(self) -> _Analysis:
        # Iterative traversals with hoisted locals: the full analysis
        # runs over the whole tree, making the Python recursion overhead
        # of the obvious formulation a confirmed flow hotspot.  All
        # orders (post-order values, pre-order observability) match the
        # recursive version exactly.
        analysis = _Analysis()
        post: list[TNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            post.append(node)
            stack.extend(node.kids)
        post.reverse()  # kids before parents
        self._evaluate(analysis, post)
        analysis.parent[id(self.root)] = None
        analysis.odcs[id(self.root)] = 0
        analysis.odc_zero[id(self.root)] = True
        self._derive(analysis, self.root, self._all_bits)
        return analysis

    def _evaluate(self, analysis: _Analysis, nodes) -> None:
        """Values, BDDs and supports of ``nodes``, kids before parents."""
        all_bits = self._all_bits
        bdd = self._bdd
        assert bdd is not None
        values = analysis.values
        bdds = analysis.bdds
        support = analysis.support
        lit_cols = self._lit_cols
        for node in nodes:
            key = id(node)
            op = node.op
            if op == tr.LIT:
                values[key] = lit_cols[node.var]
                bdds[key] = bdd.var(node.var)
                support[key] = 1 << node.var
            elif op == tr.C0:
                values[key] = 0
                bdds[key] = 0
                support[key] = 0
            elif op == tr.C1:
                values[key] = all_bits
                bdds[key] = 1
                support[key] = 0
            elif op == tr.NOT:
                kid = id(node.kids[0])
                values[key] = values[kid] ^ all_bits
                bdds[key] = bdd.not_(bdds[kid])
                support[key] = support[kid]
            else:
                a = id(node.kids[0])
                b = id(node.kids[1])
                support[key] = support[a] | support[b]
                if op == tr.AND:
                    values[key] = values[a] & values[b]
                    bdds[key] = bdd.and_(bdds[a], bdds[b])
                elif op == tr.OR:
                    values[key] = values[a] | values[b]
                    bdds[key] = bdd.or_(bdds[a], bdds[b])
                else:
                    values[key] = values[a] ^ values[b]
                    bdds[key] = bdd.xor_(bdds[a], bdds[b])

    def _derive(self, analysis: _Analysis, start: TNode,
                obs: int) -> list[int]:
        """Observability, ODC parts and parents of ``start``'s proper
        descendants.

        ``start`` is observable on ``obs``, and its own ``odc_zero`` and
        ``odc_parts`` (or ``odcs`` entry, for the root) are already set.
        Returns the keys of the subtree in pre-order.
        """
        # Pre-order: Property 5 — XOR gates have no controlling value;
        # AND/OR gates mask observability with the sibling's value and
        # grow the ODC with the sibling's controlling condition.  The
        # ODC *BDDs* are not built here: most gates only ever need the
        # "is the ODC empty?" answer (the reduction filter), which
        # propagates as a boolean — ``or_(p, c) == 0`` iff both parts
        # are 0, and a sibling contributes 0 exactly when its BDD is
        # the non-controlling constant.  Full ODCs are materialized on
        # demand by :meth:`_odc`; since every consuming decision is a
        # canonical-node comparison, deferring the construction cannot
        # change any result.
        all_bits = self._all_bits
        values = analysis.values
        bdds = analysis.bdds
        observable = analysis.observable
        odc_zero = analysis.odc_zero
        odc_parts = analysis.odc_parts
        parent = analysis.parent
        visited: list[int] = []
        stack: list[tuple[TNode, int]] = [(start, obs)]
        while stack:
            node, obs = stack.pop()
            key = id(node)
            observable[key] = obs
            visited.append(key)
            op = node.op
            if op == tr.NOT:
                kid = node.kids[0]
                k = id(kid)
                parent[k] = node
                odc_parts[k] = (key,)
                odc_zero[k] = odc_zero[key]
                stack.append((kid, obs))
                continue
            if op == tr.LIT or op == tr.C0 or op == tr.C1:
                continue
            a, b = node.kids
            ka, kb = id(a), id(b)
            parent[ka] = parent[kb] = node
            zero = odc_zero[key]
            if op == tr.XOR:
                odc_parts[ka] = odc_parts[kb] = (key,)
                odc_zero[ka] = odc_zero[kb] = zero
                stack.append((b, obs))
                stack.append((a, obs))
            elif op == tr.AND:
                ab, bb = bdds[ka], bdds[kb]
                odc_parts[ka] = (key, bb, "and")
                odc_zero[ka] = zero and bb == 1
                odc_parts[kb] = (key, ab, "and")
                odc_zero[kb] = zero and ab == 1
                stack.append((b, obs & values[ka]))
                stack.append((a, obs & values[kb]))
            else:
                ab, bb = bdds[ka], bdds[kb]
                odc_parts[ka] = (key, bb, "or")
                odc_zero[ka] = zero and bb == 0
                odc_parts[kb] = (key, ab, "or")
                odc_zero[kb] = zero and ab == 0
                stack.append((b, obs & (values[ka] ^ all_bits)))
                stack.append((a, obs & (values[kb] ^ all_bits)))
        return visited

    def _update(self, analysis: _Analysis,
                rewrites: list[_Rewrite]) -> _Analysis:
        """Bring ``analysis`` up to date after a pass's ``rewrites``.

        Each update must find exactly its own rewrite new in the tree, so
        the batch is undone and every rewrite redone just before its
        update.  An earlier update may fold a later rewrite's node out of
        the tree (its entries are gone then); that rewrite is skipped.
        Path data is re-derived once, after the whole batch, for the
        subtrees the updates name (see :meth:`_update_after_rewrite`).
        """
        for node, before, _ in rewrites:
            node.replace_with(before)
        regions: list[TNode] = []
        redone = 0
        try:
            for node, before, after in rewrites:
                node.replace_with(after)
                redone += 1
                if id(node) in analysis.parent:
                    self._update_after_rewrite(analysis, node, before.kids,
                                               regions)
        finally:
            # A BDD blow-up mid-batch still leaves the whole batch applied.
            for node, _, after in rewrites[redone:]:
                node.replace_with(after)
        parent = analysis.parent
        roots = {id(node): node for node in regions if id(node) in parent}
        for key, node in roots.items():
            up = above = parent[key]
            while above is not None and id(above) not in roots:
                above = parent[id(above)]
            if above is None:  # no other region holds this one
                self._rederive(analysis, up, node)
        return analysis

    def _update_after_rewrite(self, analysis: _Analysis, node: TNode,
                              old_kids: list[TNode],
                              regions: list[TNode]) -> None:
        """Bring subtree data and parents up to date after ``node``,
        whose kids were ``old_kids``, was rewritten in place, and append
        to ``regions`` the subtrees whose path data changed.

        The rest of the tree is normalized, so only ``node``'s new
        inverter (that of ``g·h̄``) and its ancestors need re-folding.
        Subtree data (value, BDD, support) changes from the fold point up
        to the first ancestor where it comes out the same; path data
        changes for the fold point's subtree and for the subtrees hanging
        off AND/OR gates on that stretch (XOR and NOT gates pass
        observability through unchanged, Property 5).  Everything else —
        tables and memoised decisions — stays valid.
        """
        parent = analysis.parent
        values = analysis.values
        kids = node.kids
        for i, kid in enumerate(kids):
            if id(kid) not in values:  # the new inverter: no entries yet
                kids[i] = tr.fold_node(kid)
        # Nodes that leave the tree stay referenced here until their
        # entries are gone, so no new node can take over their ids.
        dropped = _unreached(
            old_kids, {id(n) for kid in kids for n in (kid, *kid.kids)})
        up = parent[id(node)]
        while up is not None:
            folded = tr.fold_node(up)
            if folded is up:
                break
            dropped += _detached(up, folded)
            grand = parent[id(up)]
            if grand is None:
                self.root = folded
            else:
                grand.kids[0 if grand.kids[0] is up else 1] = folded
            node, up = folded, grand
        for gone in dropped:
            analysis.forget(id(gone))

        # The fold point is new, moved or rewritten: fresh subtree data
        # and parents now (later folds climb them), path data later.
        parent[id(node)] = up
        fresh = [kid for kid in node.kids if id(kid) not in values]
        for kid in node.kids:
            parent[id(kid)] = node
        for kid in fresh:
            for grandkid in kid.kids:
                parent[id(grandkid)] = kid
        self._evaluate(analysis, fresh + [node])
        regions.append(node)

        bdds, support = analysis.bdds, analysis.support
        while up is not None:
            if up.op in (tr.AND, tr.OR):
                a, b = up.kids
                regions.append(b if a is node else a)
            key = id(up)
            before = (values[key], bdds[key], support[key])
            self._evaluate(analysis, (up,))
            analysis.forget_decisions(key)
            node, up = up, parent[key]
            if (values[key], bdds[key], support[key]) == before:
                break
        # Every remaining ancestor's subtree holds changed nodes.  A
        # subtree aggregate needs its kids' aggregates, so the first
        # ancestor without one has none above it either.
        xor_clean, lit_clean = analysis.xor_clean, analysis.lit_clean
        while up is not None:
            key = id(up)
            if xor_clean.pop(key, None) is None and key not in lit_clean:
                break
            lit_clean.discard(key)
            up = parent[key]

    def _rederive(self, analysis: _Analysis, up: TNode | None,
                  kid: TNode) -> None:
        """Re-derive path data for ``kid``'s subtree below ``up``."""
        key = id(kid)
        odcs = analysis.odcs
        if up is None:
            analysis.odc_parts.pop(key, None)
            analysis.odc_zero[key] = True
            obs = self._all_bits
        else:
            up_key = id(up)
            if up.op in (tr.AND, tr.OR):
                a, b = up.kids
                sibling = id(b if a is kid else a)
                sibling_bdd = analysis.bdds[sibling]
                value = analysis.values[sibling]
                if up.op == tr.AND:
                    analysis.odc_parts[key] = (up_key, sibling_bdd, "and")
                    zero = sibling_bdd == 1
                else:
                    analysis.odc_parts[key] = (up_key, sibling_bdd, "or")
                    zero = sibling_bdd == 0
                    value ^= self._all_bits
                analysis.odc_zero[key] = analysis.odc_zero[up_key] and zero
                obs = analysis.observable[up_key] & value
            else:
                analysis.odc_parts[key] = (up_key,)
                analysis.odc_zero[key] = analysis.odc_zero[up_key]
                obs = analysis.observable[up_key]
        for k in self._derive(analysis, kid, obs):
            odcs.pop(k, None)
            analysis.forget_decisions(k)
        if up is None:
            odcs[key] = 0

    def _odc(self, key: int, analysis: _Analysis) -> int:
        """The ODC BDD for node ``key``, built (and memoized) on demand.

        Walks up the recorded parent chain to the nearest materialized
        ancestor, then replays the contributions downward — the same
        ``or_``/``not_`` applications the eager formulation performed,
        just only for nodes whose ODC is actually consumed.
        """
        odcs = analysis.odcs
        cached = odcs.get(key)
        if cached is not None:
            return cached
        bdd = self._bdd
        assert bdd is not None
        parts = analysis.odc_parts
        chain: list[int] = []
        k = key
        while k not in odcs:
            chain.append(k)
            k = parts[k][0]
        odc = odcs[k]
        for k in reversed(chain):
            part = parts[k]
            if len(part) > 1:
                _, sibling, kind = part
                contribution = bdd.not_(sibling) if kind == "and" else sibling
                odc = bdd.or_(odc, contribution)
            odcs[k] = odc
        return odc

    # -- the reduction step -------------------------------------------------------

    def _reduce_pass(self, analysis: _Analysis) -> list[_Rewrite]:
        """Apply a batch of reductions in disjoint subtrees (root-first).

        All conditions come from the same pre-pass analysis; a reduction in
        one subtree can, in rare corner cases, invalidate a simultaneous
        one in a *sibling* subtree (the don't-care sets interact), so the
        whole batch is checked against the original function and rolled
        back to one-at-a-time application if it ever disagrees.

        Returns the rewrites applied, none when nothing applies: XOR
        rewrites, or else exactly one literal rewrite.
        """
        applied: list[_Rewrite] = []
        self._scan_xors(self.root, analysis, applied)
        if not applied:
            if self.options.literal_cleanup:
                rewrite = self._scan_literals(self.root, analysis)[0]
                if rewrite is not None:
                    applied.append(rewrite)
            return applied
        if len(applied) > 1 and not self._batch_equivalent(analysis, applied):
            for node, before, _ in applied:
                node.replace_with(before)
            self.stats.reverted += len(applied)
            return self._reduce_one(analysis)
        return applied

    def _batch_equivalent(self, analysis: _Analysis,
                          rewrites: list[_Rewrite]) -> bool:
        """Whether the tree, with the whole batch applied and nothing
        folded yet, still computes the original function.

        Only the rewritten nodes, their new inverters and their ancestors
        get new BDDs; every other node's comes from the pre-pass
        analysis.
        """
        parent = analysis.parent
        stale: set[int] = set()
        for node, _, _ in rewrites:
            key = id(node)
            while key not in stale:
                stale.add(key)
                up = parent[key]
                if up is None:
                    break
                key = id(up)
        bdd = self._bdd
        assert bdd is not None
        try:
            current = _tree_bdd(self.root, bdd, analysis.bdds, stale)
        except ReproError:
            return False
        return current == self._original_bdd

    # The two scans are methods, not recursive closures: a closure that
    # calls itself is a reference cycle, which would keep each analysis
    # alive until the cyclic collector happens to run.

    def _scan_xors(self, node: TNode, analysis: _Analysis,
                   applied: list[_Rewrite]) -> tuple[int, int] | None:
        """Try every XOR at or below ``node``, pre-order, appending the
        rewrites to ``applied``.  Returns the subtree's summed stats delta
        when every XOR decision in it is memoised, else None."""
        if not node.kids:
            return _NO_DELTA
        stats = self.stats
        key = id(node)
        delta = analysis.xor_clean.get(key)
        if delta is not None:
            stats.decided_by_simulation += delta[0]
            stats.decided_by_engine += delta[1]
            return delta
        memo = analysis.xor_memo.get(key)
        if memo is not None:
            stats.decided_by_simulation += memo[0]
            stats.decided_by_engine += memo[1]
        elif node.op == tr.XOR:
            before = (stats.decided_by_simulation,
                      stats.decided_by_engine, stats.reverted)
            rewrite = self._try_reduce_xor(node, analysis)
            if rewrite is not None:
                applied.append(rewrite)
                return None  # do not descend into a rewritten subtree
            if stats.reverted == before[2]:
                memo = (stats.decided_by_simulation - before[0],
                        stats.decided_by_engine - before[1])
                analysis.xor_memo[key] = memo
        sim, eng = memo if memo is not None else _NO_DELTA
        clean = memo is not None or node.op != tr.XOR
        for kid in node.kids:
            sub = self._scan_xors(kid, analysis, applied)
            if sub is None:
                clean = False
            elif clean:
                sim += sub[0]
                eng += sub[1]
        if not clean:
            return None
        analysis.xor_clean[key] = (sim, eng)
        return sim, eng

    def _scan_literals(self, node: TNode,
                       analysis: _Analysis) -> tuple[_Rewrite | None, bool]:
        """The rewrite of the first literal at or below ``node``
        (pre-order) that an untestable fault removes, and whether every
        literal tried there failed memoisably."""
        key = id(node)
        if key in analysis.lit_clean:
            return None, True
        clean = True
        if node.op == tr.LIT:
            reverted = self.stats.reverted
            rewrite = self._try_reduce_literal(node, analysis)
            if rewrite is not None:
                return rewrite, False
            clean = self.stats.reverted == reverted
        for kid in node.kids:
            found, kid_clean = self._scan_literals(kid, analysis)
            if found is not None:
                return found, False
            clean = clean and kid_clean
        if clean:
            analysis.lit_clean.add(key)
        return None, clean

    def _reduce_one(self, analysis: _Analysis) -> list[_Rewrite]:
        """Fallback: first applicable reduction only (always sound)."""
        for node in self.root.iter_nodes():
            if node.op == tr.XOR:
                rewrite = self._try_reduce_xor(node, analysis)
                if rewrite is not None:
                    return [rewrite]
        return []

    def _try_reduce_xor(self, node: TNode,
                        analysis: _Analysis) -> _Rewrite | None:
        g, h = node.kids
        # Cheap filter from the paper: disjoint-support XOR gates observed
        # through nothing but XOR gates (parity trees, PO join trees) are
        # never reducible.
        support = analysis.support
        if analysis.odc_zero[id(node)] and not (
            support[id(g)] & support[id(h)]
        ):
            return None
        relevant = frozenset(
            pattern
            for pattern in ((0, 1), (1, 0), (1, 1))
            if self._is_relevant(node, pattern, analysis)
        )
        replacement = _REPLACEMENTS.get(relevant)
        if replacement is None:
            return None
        return self._apply(node, replacement(g, h), kind=_KIND[relevant])

    def _try_reduce_literal(self, node: TNode,
                            analysis: _Analysis) -> _Rewrite | None:
        # Simulation witness first: a pattern where the literal is 0 (1)
        # with the node observable satisfies the stuck-at-1 (stuck-at-0)
        # BDD condition directly — ``observable`` is the bit-parallel
        # evaluation of exactly the complement of the ODC — so both
        # faults witnessed testable means neither replacement can apply
        # and the ODC BDD is never needed.
        key = id(node)
        all_bits = self._all_bits
        obs = analysis.observable[key]
        value = analysis.values[key]
        if obs & (value ^ all_bits) and obs & value:
            return None
        bdd = self._bdd
        assert bdd is not None
        care = bdd.not_(self._odc(key, analysis))
        literal = bdd.var(node.var)
        # stuck-at-1 untestable: the literal is never observed at 0.
        if bdd.and_(care, bdd.not_(literal)) == 0:
            return self._apply(node, TNode.const(1), kind="literal")
        # stuck-at-0 untestable: never observed at 1.
        if bdd.and_(care, literal) == 0:
            return self._apply(node, TNode.const(0), kind="literal")
        return None

    def _is_relevant(self, node: TNode, pattern: tuple[int, int],
                     analysis: _Analysis) -> bool:
        g, h = node.kids
        all_bits = self._all_bits
        gv = analysis.values[id(g)]
        hv = analysis.values[id(h)]
        want = (gv if pattern[0] else gv ^ all_bits) & (
            hv if pattern[1] else hv ^ all_bits
        )
        if want & analysis.observable[id(node)]:
            self.stats.decided_by_simulation += 1
            return True
        engine = self.options.controllability
        if engine is ControllabilityEngine.BDD:
            bdd = self._bdd
            assert bdd is not None
            gb = analysis.bdds[id(g)]
            hb = analysis.bdds[id(h)]
            condition = bdd.and_(
                gb if pattern[0] else bdd.not_(gb),
                hb if pattern[1] else bdd.not_(hb),
            )
            self.stats.decided_by_engine += 1
            if condition == 0:  # no input produces the pattern at all
                return False
            condition = bdd.and_(
                condition, bdd.not_(self._odc(id(node), analysis))
            )
            return condition != 0
        if engine is ControllabilityEngine.ENUMERATION:
            # Enumeration patterns are already in the simulated set; an
            # unexhibited pattern is declared irrelevant (verified on apply).
            self.stats.decided_by_engine += 1
            return False
        # SIMULATION_ONLY: trust the pattern set, verified on apply.
        return False

    def _apply(self, node: TNode, new: TNode, kind: str) -> _Rewrite | None:
        """Mutate ``node`` into ``new``; verify and roll back when the
        deciding engine was not exact.  Returns the rewrite, or None
        when it was rolled back."""
        exact = self.options.controllability is ControllabilityEngine.BDD
        before = TNode(node.op, list(node.kids), node.var)
        node.replace_with(new)
        if not exact and not self._still_equivalent():
            node.replace_with(before)
            self.stats.reverted += 1
            return None
        if kind == "or":
            self.stats.xor_to_or += 1
        elif kind == "and":
            self.stats.xor_to_and += 1
        elif kind == "child":
            self.stats.xor_to_child += 1
        elif kind == "const":
            self.stats.xor_to_const += 1
        else:
            self.stats.literals_removed += 1
        return node, before, new

    def _still_equivalent(self) -> bool:
        bdd = self._bdd
        assert bdd is not None and self._original_bdd is not None
        try:
            current = _tree_bdd(self.root, bdd)
        except ReproError:
            return False
        return current == self._original_bdd


_NO_DELTA = (0, 0)


def _detached(old: TNode, new: TNode) -> list[TNode]:
    """The nodes of ``old``'s subtree that leave the tree when
    :func:`tr.fold_node` replaces ``old`` by ``new``."""
    kept = {id(new)}
    if new.op == tr.NOT:
        kept.add(id(new.kids[0]))
    return _unreached([old], kept)


def _unreached(roots: list[TNode], kept: set[int]) -> list[TNode]:
    """The nodes at or below ``roots`` that are not below a ``kept`` one."""
    gone: list[TNode] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in kept:
            gone.append(node)
            stack.extend(node.kids)
    return gone


def _tree_bdd(node: TNode, bdd: BddManager,
              known: dict[int, int] | None = None,
              stale: set[int] | frozenset[int] = frozenset()) -> int:
    """The BDD of ``node``'s function, taken from ``known`` for every
    node it holds and ``stale`` does not name."""
    if known is not None and id(node) not in stale:
        cached = known.get(id(node))
        if cached is not None:
            return cached
    if node.op == tr.LIT:
        return bdd.var(node.var)
    if node.op == tr.C0:
        return 0
    if node.op == tr.C1:
        return 1
    if node.op == tr.NOT:
        return bdd.not_(_tree_bdd(node.kids[0], bdd, known, stale))
    a = _tree_bdd(node.kids[0], bdd, known, stale)
    b = _tree_bdd(node.kids[1], bdd, known, stale)
    if node.op == tr.AND:
        return bdd.and_(a, b)
    if node.op == tr.OR:
        return bdd.or_(a, b)
    return bdd.xor_(a, b)


def _replace_or(g: TNode, h: TNode) -> TNode:
    return TNode.gate(tr.OR, g, h)


def _replace_g_not_h(g: TNode, h: TNode) -> TNode:
    return TNode.gate(tr.AND, g, TNode.invert(h))


def _replace_not_g_h(g: TNode, h: TNode) -> TNode:
    return TNode.gate(tr.AND, TNode.invert(g), h)


def _replace_g(g: TNode, h: TNode) -> TNode:
    return g


def _replace_h(g: TNode, h: TNode) -> TNode:
    return h


def _replace_const0(g: TNode, h: TNode) -> TNode:
    return TNode.const(0)


_REPLACEMENTS = {
    frozenset({(0, 1), (1, 0)}): _replace_or,
    frozenset({(0, 1), (1, 1)}): _replace_not_g_h,
    frozenset({(1, 0), (1, 1)}): _replace_g_not_h,
    frozenset({(0, 1)}): _replace_h,
    frozenset({(1, 0)}): _replace_g,
    frozenset({(1, 1)}): _replace_const0,
    frozenset(): _replace_const0,
}

_KIND = {
    frozenset({(0, 1), (1, 0)}): "or",
    frozenset({(0, 1), (1, 1)}): "and",
    frozenset({(1, 0), (1, 1)}): "and",
    frozenset({(0, 1)}): "child",
    frozenset({(1, 0)}): "child",
    frozenset({(1, 1)}): "const",
    frozenset(): "const",
}
