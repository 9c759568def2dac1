"""Mutable gate trees — the network form N_x the redundancy analysis edits.

The paper's redundancy removal (Section 4) works on the tree network of one
output function whose leaves are *literals*: the polarity-adjusted primary
inputs of the FPRM form (assumption (1): "all the variables have positive
polarities").  We mirror that: leaves are literal indices, all positive;
gates are strictly 2-input AND/OR/XOR plus inverters; the constant-1 FPRM
cube becomes an inverter at the output (assumption (2)).

Trees are deliberately simple mutable objects — the redundancy remover
rewrites ops in place — and conversion to/from the immutable expression AST
happens at the edges.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.expr import expression as ex

LIT = "lit"
C0 = "c0"
C1 = "c1"
NOT = "not"
AND = "and"
OR = "or"
XOR = "xor"

_GATE_COST = {AND: 1, OR: 1, XOR: 3, NOT: 0, LIT: 0, C0: 0, C1: 0}


class TNode:
    """One tree node; ``kids`` has 2 entries for gates, 1 for NOT, 0 else."""

    __slots__ = ("op", "kids", "var")

    def __init__(self, op: str, kids: list["TNode"] | None = None,
                 var: int | None = None):
        self.op = op
        self.kids = kids if kids is not None else []
        self.var = var

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lit(var: int) -> "TNode":
        return TNode(LIT, var=var)

    @staticmethod
    def const(value: int) -> "TNode":
        return TNode(C1 if value else C0)

    @staticmethod
    def gate(op: str, a: "TNode", b: "TNode") -> "TNode":
        return TNode(op, [a, b])

    @staticmethod
    def invert(a: "TNode") -> "TNode":
        return TNode(NOT, [a])

    # -- queries -----------------------------------------------------------

    def is_gate(self) -> bool:
        return self.op in (AND, OR, XOR)

    def evaluate(self, literal_pattern: int) -> int:
        """Value (0/1) on one literal-space pattern (bit i = literal i)."""
        if self.op == LIT:
            return (literal_pattern >> self.var) & 1
        if self.op == C0:
            return 0
        if self.op == C1:
            return 1
        if self.op == NOT:
            return 1 - self.kids[0].evaluate(literal_pattern)
        a = self.kids[0].evaluate(literal_pattern)
        b = self.kids[1].evaluate(literal_pattern)
        if self.op == AND:
            return a & b
        if self.op == OR:
            return a | b
        return a ^ b

    def iter_nodes(self) -> Iterator["TNode"]:
        """All nodes, parents before children (preorder)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.kids))

    def two_input_gate_count(self) -> int:
        return sum(_GATE_COST[node.op] for node in self.iter_nodes())

    def support(self) -> int:
        mask = 0
        for node in self.iter_nodes():
            if node.op == LIT:
                mask |= 1 << node.var
        return mask

    def copy(self) -> "TNode":
        return TNode(self.op, [kid.copy() for kid in self.kids], self.var)

    def replace_with(self, other: "TNode") -> None:
        """Mutate this node into a copy of ``other`` (identity preserved)."""
        self.op = other.op
        self.kids = other.kids
        self.var = other.var

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TNode({self.format()})"

    def format(self) -> str:
        if self.op == LIT:
            return f"l{self.var}"
        if self.op in (C0, C1):
            return "0" if self.op == C0 else "1"
        if self.op == NOT:
            return f"!({self.kids[0].format()})"
        symbol = {AND: "&", OR: "|", XOR: "^"}[self.op]
        return f"({self.kids[0].format()} {symbol} {self.kids[1].format()})"


# -- conversions ---------------------------------------------------------------


def tree_from_expr(expr: ex.Expr) -> TNode:
    """Binarize an expression (literal space) into a balanced gate tree."""
    if isinstance(expr, ex.Const):
        return TNode.const(int(expr.value))
    if isinstance(expr, ex.Lit):
        node = TNode.lit(expr.var)
        return TNode.invert(node) if expr.negated else node
    if isinstance(expr, ex.Not):
        return TNode.invert(tree_from_expr(expr.arg))
    kids = [tree_from_expr(child) for child in expr.children()]
    op = {ex.And: AND, ex.Or: OR, ex.Xor: XOR}[type(expr)]
    return _balanced(op, kids)


def _balanced(op: str, kids: list[TNode]) -> TNode:
    while len(kids) > 1:
        merged = []
        for i in range(0, len(kids) - 1, 2):
            merged.append(TNode.gate(op, kids[i], kids[i + 1]))
        if len(kids) % 2:
            merged.append(kids[-1])
        kids = merged
    return kids[0]


def expr_from_tree(node: TNode) -> ex.Expr:
    """Back to the immutable AST (still literal space)."""
    if node.op == LIT:
        return ex.Lit(node.var)
    if node.op == C0:
        return ex.FALSE
    if node.op == C1:
        return ex.TRUE
    if node.op == NOT:
        return ex.not_(expr_from_tree(node.kids[0]))
    a = expr_from_tree(node.kids[0])
    b = expr_from_tree(node.kids[1])
    if node.op == AND:
        return ex.and_([a, b])
    if node.op == OR:
        return ex.or_([a, b])
    return ex.xor_([a, b])


def simplify_tree(root: TNode) -> TNode:
    """Constant folding and trivial-gate elimination, bottom-up.

    Keeps the tree normalized after the redundancy remover rewrites ops:
    gates with constant fanins fold away, double inverters cancel.
    """
    return simplify_tree_tracked(root)[0]


def simplify_tree_tracked(root: TNode) -> tuple[TNode, bool]:
    """:func:`simplify_tree` plus a did-anything-change flag.

    When the flag is False every node object (and thus every ``id``-keyed
    analysis of the tree) is untouched, which lets callers skip re-derived
    per-pass data.
    """
    changed = False

    def simp(node: TNode) -> TNode:
        nonlocal changed
        result = _simp_inner(node)
        if result is not node:
            changed = True
        return result

    def _simp_inner(node: TNode) -> TNode:
        if node.op in (LIT, C0, C1):
            return node
        node.kids = [simp(kid) for kid in node.kids]
        return fold_node(node)

    return simp(root), changed


def fold_node(node: TNode) -> TNode:
    """One folding step at ``node``, whose kids are already normalized.

    Returns ``node`` itself when no rule applies, else its replacement:
    a new constant, a new inverter, or one of the existing descendants.
    Normalized kids make the result normalized too, so re-folding only
    the ancestors of a rewritten leaf keeps the whole tree normalized.
    """
    op = node.op
    if op in (LIT, C0, C1):
        return node
    if op == NOT:
        kid = node.kids[0]
        if kid.op == C0:
            return TNode.const(1)
        if kid.op == C1:
            return TNode.const(0)
        if kid.op == NOT:
            return kid.kids[0]
        return node
    a, b = node.kids
    for first, second in ((a, b), (b, a)):
        if op == AND:
            if first.op == C0:
                return TNode.const(0)
            if first.op == C1:
                return second
        elif op == OR:
            if first.op == C1:
                return TNode.const(1)
            if first.op == C0:
                return second
        elif op == XOR:
            if first.op == C0:
                return second
            if first.op == C1:
                return fold_node(TNode.invert(second))
    return node
