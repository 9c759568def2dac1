"""The paper's Reduction and Factorization rules (Section 3).

Reduction rules:
    (a)  A ⊕ AB        = A·B̄
    (b)  AB ⊕ AC ⊕ ABC = A·(B + C)
    (c)  AB ⊕ B̄        = A + B̄

Factorization rules:
    (d)  AB ⊕ AC ⊕ A…  = A·(B ⊕ C ⊕ …)
    (e)  AB + AC + A…  = A·(B + C + …)      (only after reductions)

The rules are stated here on FPRM cube masks — A, B, C are cubes or complex
expressions in the paper, and the cube-level instances below are what the
cube-method factorizer applies; the general expression-level reductions are
discovered by the redundancy remover (Section 4 notes the two mechanisms
find the same simplifications: ``(B⊕C)⊕BC = (B+C)+BC = B+C``).

Each ``try_rule_*`` inspects a set of cube masks and, on a match, returns
the rewritten expression together with the consumed cubes.  Rule (c) has
no cube-level matcher: B̄ is not a cube of a positive-polarity FPRM cube
set, so the redundancy remover finds these reductions instead, and only
its expression-level form :func:`reduce_rule_c_expr` is here.
"""

from __future__ import annotations

from repro.expr import expression as ex
from repro.utils.bitops import bit_indices


def cube_expr(mask: int) -> ex.Expr:
    """AND of positive literals for one FPRM cube mask (literal space)."""
    literals = [ex.Lit(var) for var in bit_indices(mask)]
    if not literals:
        return ex.TRUE
    return ex.and_(literals)


def try_rule_a(masks: set[int]) -> tuple[ex.Expr, set[int]] | None:
    """(a) A ⊕ AB = A·B̄ — look for a cube pair where one contains the other."""
    ordered = sorted(masks)
    for a in ordered:
        for ab in ordered:
            if ab == a or (ab & a) != a:
                continue
            b = ab & ~a
            expr = ex.and_([cube_expr(a), ex.not_(cube_expr(b))])
            return expr, {a, ab}
    return None


def try_rule_b(masks: set[int]) -> tuple[ex.Expr, set[int]] | None:
    """(b) AB ⊕ AC ⊕ ABC = A·(B+C) with disjoint B, C."""
    ordered = sorted(masks)
    for i, ab in enumerate(ordered):
        for ac in ordered[i + 1:]:
            a = ab & ac
            b = ab & ~a
            c = ac & ~a
            if not b or not c:
                continue
            abc = ab | ac
            if abc in masks and abc not in (ab, ac):
                expr = ex.and_(
                    [cube_expr(a), ex.or_([cube_expr(b), cube_expr(c)])]
                )
                return expr, {ab, ac, abc}
    return None


def reduce_rule_c_expr(a: ex.Expr, b: ex.Expr) -> ex.Expr:
    """Expression-level (c): A·B ⊕ B̄ = A + B̄."""
    return ex.or_([a, ex.not_(b)])


def reduce_rule_a_expr(a: ex.Expr, b: ex.Expr) -> ex.Expr:
    """Expression-level (a): A ⊕ A·B = A·B̄."""
    return ex.and_([a, ex.not_(b)])


def reduce_rule_b_expr(a: ex.Expr, b: ex.Expr, c: ex.Expr) -> ex.Expr:
    """Expression-level (b): AB ⊕ AC ⊕ ABC = A·(B + C)."""
    return ex.and_([a, ex.or_([b, c])])
