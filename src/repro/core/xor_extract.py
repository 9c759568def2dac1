"""GF(2) fast-extract: shared XOR-divisor extraction over FPRM cube sets.

The paper closes Section 3 noting that "more elegant methods for algebraic
factorization are still possible, similar to the methods in [Brayton &
McMullen], for AND/XOR forms".  This module is that method: the classic
double-cube fast-extract transplanted into the GF(2) cube algebra.

For cubes ``c1, c2`` of an FPRM form with common part ``cc``:

    cc·a ⊕ cc·b = cc · (a ⊕ b)        with a = c1−cc, b = c2−cc

so the two-cube expression ``a ⊕ b`` is a *divisor* whose extraction
replaces every pair ``{q∪a, q∪b}`` with the single cube ``q∪{x_D}``,
where ``x_D`` is a fresh variable computing ``a ⊕ b``.  Because ⊕ is the
sum of the GF(2) polynomial ring, weak division works exactly as in the
AND/OR case.  Run across all outputs of one polarity group, this recovers
the shared sub-sums of symmetric functions and the carry cubes adders
share between outputs — the sharing the paper reaches via SIS ``resub``.

Divisor variables occupy ids ``n, n+1, …`` above the primary literals;
:func:`extract_xor_divisors` returns the rewritten cube sets plus the
divisor definitions (which may themselves use earlier divisors).

A cube is an int bitmask of its literal ids from start to end, so the
pair count runs on ``&``, ``^`` and ``bit_count``.  Divisor ids pass bit
63 (``n`` plus up to 400 divisors), so the masks stay Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_MAX_PAIRS_PER_FUNCTION = 20_000
_MAX_ITERATIONS = 400

Cube = int  # bitmask of literal ids


@dataclass
class XorExtraction:
    """Rewritten functions + divisor definitions.

    ``functions[i]`` is output ``i``'s cube list over the extended literal
    space; ``divisors[v]`` (for v >= num_literals) is the 2-cube body of
    divisor variable ``v``.
    """

    num_literals: int
    functions: list[list[Cube]]
    divisors: dict[int, list[Cube]] = field(default_factory=dict)
    next_var: int = 0


def extract_xor_divisors(
    masks_per_output: list[list[int]], num_literals: int
) -> XorExtraction:
    """Iteratively extract the best shared XOR divisor until none helps."""
    functions = [list(masks) for masks in masks_per_output]
    extraction = XorExtraction(
        num_literals=num_literals,
        functions=functions,
        next_var=num_literals,
    )
    for _ in range(_MAX_ITERATIONS):
        divisor, value = _best_divisor(
            extraction.functions, list(extraction.divisors.values())
        )
        if divisor is None or value <= 0:
            break
        _apply(extraction, divisor)
    return extraction


def _best_divisor(
    functions: list[list[Cube]], divisor_bodies: list[list[Cube]]
) -> tuple[tuple[Cube, Cube] | None, int]:
    # pair -> [occurrences, quotient literals], in first-occurrence order
    # (the first pair of the best saving wins).
    stats: dict[tuple[Cube, Cube], list[int]] = {}
    for cubes in functions + divisor_bodies:
        budget = _MAX_PAIRS_PER_FUNCTION  # the first pairs in (i, j) order
        for i, ci in enumerate(cubes):
            partners = cubes[i + 1:i + 1 + budget]
            budget -= len(partners)
            for cj in partners:
                common = ci & cj
                a = ci ^ common
                b = cj ^ common
                if not a or not b:
                    continue
                # a and b are disjoint: the lower lowest literal orders them.
                pair = (a, b) if (a & -a) < (b & -b) else (b, a)
                entry = stats.get(pair)
                if entry is None:
                    stats[pair] = [1, common.bit_count()]
                else:
                    entry[0] += 1
                    entry[1] += common.bit_count()
            if budget <= 0:
                break
    best: tuple[Cube, Cube] | None = None
    best_value = 0
    for pair, (occurrences, quotient_lits) in stats.items():
        if occurrences < 2:
            continue
        lits_d = pair[0].bit_count() + pair[1].bit_count()
        # Each occurrence replaces 2 cubes (2·len(q) + lits(D) literals)
        # with one (len(q) + 1); the divisor body itself costs lits(D).
        saving = quotient_lits + occurrences * (lits_d - 1) - lits_d
        if saving > best_value:
            best_value = saving
            best = pair
    return best, best_value


def _apply(extraction: XorExtraction, divisor: tuple[Cube, Cube]) -> None:
    var = extraction.next_var
    extraction.next_var += 1
    a, b = divisor

    def rewrite(cubes: list[Cube]) -> list[Cube]:
        # Two phases: decide the pairing first (a partner may precede its
        # initiator in the list), then emit survivors + replacements.
        present = set(cubes)
        used: set[Cube] = set()
        replacements: list[Cube] = []
        for cube in cubes:
            if cube in used or (cube & a) != a:
                continue
            q = cube ^ a
            partner = q | b
            if (
                not (q & b)
                and partner != cube
                and partner in present
                and partner not in used
            ):
                used.add(cube)
                used.add(partner)
                replacements.append(q | (1 << var))
        return [c for c in cubes if c not in used] + replacements

    extraction.functions = [rewrite(f) for f in extraction.functions]
    extraction.divisors = {
        v: rewrite(body) for v, body in extraction.divisors.items()
    }
    extraction.divisors[var] = [a, b]
