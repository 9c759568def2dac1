"""Inverter minimization by De Morgan phase assignment.

Gate counting treats inverters as free, but they are real cells after
mapping and real switching nodes for the power estimate, so both flows run
this pass on their final expressions: every subexpression is computed in
whichever phase needs fewer inverters, with ``NOT(AND(…))`` re-expressed
as ``OR`` of complements (and vice versa) when that absorbs negations.
XOR absorbs any single complement for free (``ā⊕b = ¬(a⊕b)``).
"""

from __future__ import annotations

from repro.expr import expression as ex
from repro.expr.memo import ExprMemo


def minimize_inverters(expr: ex.Expr,
                       memo: ExprMemo | None = None) -> ex.Expr:
    """Phase-optimized rewrite of ``expr`` (function preserved).

    Phase results are kept in ``memo.phase`` keyed on each node's
    structural number, so every structure is rewritten once per memo
    (a fresh memo when none is given).
    """
    if memo is None:
        memo = ExprMemo()
    result, _cost = _phase(expr, False, memo)
    return result


def minimize_inverters_guarded(expr: ex.Expr, width: int,
                               memo: ExprMemo | None = None) -> ex.Expr:
    """:func:`minimize_inverters` with a structural-sharing guard.

    The phase rewrite reasons over trees; on DAG-shaped expressions a node
    consumed in both phases can end up realized twice (once straight, once
    De-Morganed), losing structural sharing.  Build both versions into a
    hashed network and keep the rewrite only when it does not increase
    (gates, inverters).
    """
    from repro.network.build import strashed_cost

    if memo is None:
        memo = ExprMemo()
    rewritten = minimize_inverters(expr, memo)
    if rewritten is expr:
        return expr
    if (strashed_cost(rewritten, width, memo)
            <= strashed_cost(expr, width, memo)):
        return rewritten
    return expr


def _phase(expr: ex.Expr, want_inverted: bool,
           memo: ExprMemo) -> tuple[ex.Expr, int]:
    """(rewritten expr computing expr^want_inverted, inverter count)."""
    key = (memo.number(expr), want_inverted)
    cached = memo.phase.get(key)
    if cached is not None:
        return cached
    result = _phase_uncached(expr, want_inverted, memo)
    memo.phase[key] = result
    return result


def _phase_uncached(expr, want_inverted, memo):
    if isinstance(expr, ex.Const):
        return (ex.Const(expr.value != want_inverted), 0)
    if isinstance(expr, ex.Lit):
        negated = expr.negated != want_inverted
        return (ex.Lit(expr.var, negated), 1 if negated else 0)
    if isinstance(expr, ex.Not):
        return _phase(expr.arg, not want_inverted, memo)
    if isinstance(expr, ex.Xor):
        # One child may absorb the inversion for free; give it to the child
        # that is cheaper inverted.
        children = list(expr.children())
        built = [_phase(child, False, memo) for child in children]
        cost = sum(c for _, c in built)
        if want_inverted:
            best_index = 0
            best_delta = None
            for index, child in enumerate(children):
                inverted_child, inverted_cost = _phase(child, True, memo)
                delta = inverted_cost - built[index][1]
                if best_delta is None or delta < best_delta:
                    best_delta = delta
                    best_index = index
                    best_child = (inverted_child, inverted_cost)
            parts = [b[0] for b in built]
            parts[best_index] = best_child[0]
            cost = cost + (best_delta or 0)
            return (ex.xor_join(parts) if len(parts) != 2
                    else ex.xor2(parts[0], parts[1]), cost)
        parts = [b[0] for b in built]
        return (ex.xor_join(parts) if len(parts) != 2
                else ex.xor2(parts[0], parts[1]), cost)
    # AND/OR: realize either directly or through De Morgan.
    is_and = isinstance(expr, ex.And)
    children = list(expr.children())
    straight = [_phase(child, want_inverted and False, memo)
                for child in children]
    flipped = [_phase(child, True, memo) for child in children]
    direct_cost = sum(c for _, c in straight)
    demorgan_cost = sum(c for _, c in flipped)
    direct_op = ex.and_ if is_and else ex.or_
    demorgan_op = ex.or_ if is_and else ex.and_
    if want_inverted:
        # ¬AND = OR of complements (demorgan, no inverter) vs NOT(AND).
        if demorgan_cost <= direct_cost + 1:
            return (demorgan_op([f for f, _ in flipped]), demorgan_cost)
        return (ex.not_(direct_op([s for s, _ in straight])),
                direct_cost + 1)
    if direct_cost <= demorgan_cost + 1:
        return (direct_op([s for s, _ in straight]), direct_cost)
    return (ex.not_(demorgan_op([f for f, _ in flipped])),
            demorgan_cost + 1)
