"""Algebraic factoring of SOP covers — SIS ``good_factor``/``quick_factor``.

Recursive divide-and-factor: pick a divisor (the best kernel when the
cover is small enough, otherwise the most frequent literal), divide, and
factor quotient, divisor and remainder.  Produces AND/OR/NOT expression
trees over literal ids (translated to :mod:`repro.expr` literals at the
end); no XOR is ever introduced — that is precisely the conventional-flow
behaviour the paper contrasts with.
"""

from __future__ import annotations

from repro.expr import expression as ex
from repro.sislite.divisors import (
    CubeSet,
    divide,
    is_cube_free,
    kernels,
    literal_count,
    literal_histogram,
    lit_negated,
    lit_var,
)

_KERNEL_COVER_LIMIT = 80


def factor_cover(cubes: list[CubeSet]) -> ex.Expr:
    """Factored expression for an OR-of-cubes function."""
    cubes = _dedupe(cubes)
    if not cubes:
        return ex.FALSE
    if len(cubes) == 1:
        return _cube_to_expr(cubes[0])
    divisor = None
    if len(cubes) <= _KERNEL_COVER_LIMIT:
        divisor = _best_kernel(cubes)
    if divisor is None:
        divisor = _most_common_literal_divisor(cubes)
    if divisor is None:
        return ex.or_([_cube_to_expr(c) for c in cubes])
    quotient, remainder = divide(cubes, divisor)
    if not quotient:
        return ex.or_([_cube_to_expr(c) for c in cubes])
    product = ex.and_([factor_cover(quotient), factor_cover(divisor)])
    if not remainder:
        return product
    return ex.or_([product, factor_cover(remainder)])


def _dedupe(cubes: list[CubeSet]) -> list[CubeSet]:
    seen: set[CubeSet] = set()
    out = []
    for cube in cubes:
        if cube not in seen:
            # Drop cubes covered by an already-kept smaller cube.
            if any(kept <= cube for kept in seen):
                continue
            seen.add(cube)
            out.append(cube)
    return out


def _cube_to_expr(cube: CubeSet) -> ex.Expr:
    if not cube:
        return ex.TRUE
    return ex.and_(
        [ex.Lit(lit_var(lit), lit_negated(lit)) for lit in sorted(cube)]
    )


def _best_kernel(cubes: list[CubeSet]) -> list[CubeSet] | None:
    """Kernel with the best literal savings as a divisor, if any helps."""
    best: list[CubeSet] | None = None
    best_value = 0
    for _, kernel in kernels(cubes):
        if len(kernel) < 2 or frozenset(kernel) == frozenset(cubes):
            continue
        quotient, _ = divide(cubes, kernel)
        if len(quotient) < 1:
            continue
        # Literals saved: each extra use of the kernel body replaces
        # |kernel| cube copies with one quotient cube reference.
        value = (len(quotient) - 1) * literal_count(kernel) - len(quotient)
        if value > best_value:
            best_value = value
            best = kernel
    return best


def _most_common_literal_divisor(cubes: list[CubeSet]) -> list[CubeSet] | None:
    counts = literal_histogram(cubes)
    if not counts:
        return None
    lit, count = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    if count < 2:
        return None
    return [frozenset({lit})]


def is_factored_trivially(cubes: list[CubeSet]) -> bool:
    return not is_cube_free(cubes)
