"""Building networks from expression trees.

Expressions are trees; the structural hashing in :class:`Network` restores
sharing across outputs (the paper's SIS-``resub`` merge step).  N-ary
AND/OR/XOR operators become balanced binary trees, matching the paper's
"balanced, binary tree of XOR gates" join.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.expr import expression as ex
from repro.expr.memo import ExprMemo
from repro.network.netlist import GateType, Network


def add_expr(net: Network, expr: ex.Expr,
             var_map: Sequence[int] | None = None,
             _memo: dict[int, int] | None = None,
             _key: Callable[[ex.Expr], int] = id) -> int:
    """Add ``expr`` to ``net`` and return its node.

    ``var_map`` translates expression variable ``j`` to primary input
    ``var_map[j]`` (identity when omitted) so specifications over a local
    support embed into the full-width network.  Shared subexpression
    objects (OFDD-derived DAGs) are visited once via a memo keyed by
    ``_key`` (object identity unless a structural number is given).
    """
    if _memo is None:
        _memo = {}
    key = _key(expr)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    if isinstance(expr, ex.Const):
        result = net.const1 if expr.value else net.const0
    elif isinstance(expr, ex.Lit):
        pi = net.pi(var_map[expr.var] if var_map is not None else expr.var)
        result = net.add_not(pi) if expr.negated else pi
    elif isinstance(expr, ex.Not):
        result = net.add_not(add_expr(net, expr.arg, var_map, _memo, _key))
    else:
        children = [
            add_expr(net, child, var_map, _memo, _key)
            for child in expr.children()
        ]
        if isinstance(expr, ex.And):
            result = net.add_and_tree(children)
        elif isinstance(expr, ex.Or):
            result = net.add_or_tree(children)
        elif isinstance(expr, ex.Xor):
            result = net.add_xor_tree(children)
        else:
            raise TypeError(
                f"cannot build network node from {type(expr).__name__}"
            )
    _memo[key] = result
    return result


def strashed_cost(expr: ex.Expr, width: int,
                  memo: ExprMemo | None = None) -> tuple[int, int]:
    """(gates, inverters) of ``expr`` built as a structurally-hashed network.

    Gates count as in :meth:`Network.two_input_gate_count` (AND/OR = 1,
    XOR = 3); inverters are the live NOT nodes of the cone.

    Every call on one ``memo`` adds into one strashed network per width,
    each structure once, and caches the cost of each root's cone.  The
    hashing and folding rules of ``Network.add_*`` depend only on
    structure, never on node ids, so that cone has the gates and
    inverters a fresh network built from ``expr`` alone would have.
    Without a memo the call gets a fresh one.
    """
    if memo is None:
        memo = ExprMemo()
    state = memo.strash.get(width)
    if state is None:
        state = memo.strash[width] = (Network(width), {}, {})
    net, nodes, costs = state
    root = add_expr(net, expr, None, nodes, memo.number)
    cost = costs.get(root)
    if cost is None:
        cost = costs[root] = _cone_cost(net, root)
    return cost


def _cone_cost(net: Network, root: int) -> tuple[int, int]:
    """(gates, inverters) over the transitive fanin of ``root``."""
    types, fanins = net.types, net.fanins
    gates = inverters = 0
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        gate = types[node]
        if gate is GateType.AND or gate is GateType.OR:
            gates += 1
        elif gate is GateType.XOR:
            gates += 3
        elif gate is GateType.NOT:
            inverters += 1
        for child in fanins[node]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return gates, inverters


def network_from_exprs(
    num_inputs: int,
    exprs: Sequence[ex.Expr],
    *,
    name: str = "",
    var_maps: Sequence[Sequence[int] | None] | None = None,
    input_names: Sequence[str] | None = None,
    output_names: Sequence[str] | None = None,
) -> Network:
    """Build a multi-output network from one expression per output."""
    net = Network(num_inputs, name=name, input_names=input_names)
    outputs = []
    for index, expr in enumerate(exprs):
        var_map = var_maps[index] if var_maps is not None else None
        outputs.append(add_expr(net, expr, var_map))
    net.set_outputs(outputs, output_names)
    return net
