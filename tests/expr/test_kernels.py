"""Cube-algebra kernels against a one-variable-at-a-time reference.

Every cover pass (SOP single-cube containment, cofactoring, the ESOP
minimizer's reduce and exorlink scans) rests on a handful of Cube/Cover
primitives that act on whole ``pos``/``neg`` masks at once.  These
property tests pin each primitive, on seeded random covers, to the
relation it must compute, spelled out variable by variable.
"""

from __future__ import annotations

import random

import pytest

from repro.esopmin.exorcism import _difference_vars, _exorlink_pass
from repro.expr.cover import Cover
from repro.expr.cube import Cube
from repro.fprm.polarity import _index_popcounts
from repro.utils.bitops import popcount

ABSENT, POS, NEG = 0, 1, 2


def states(cube: Cube) -> list[int]:
    """The cube's literal state per variable."""
    return [POS if cube.pos >> var & 1 else NEG if cube.neg >> var & 1
            else ABSENT for var in range(cube.n)]


def from_states(n: int, per_var: list[int]) -> Cube:
    pos = sum(1 << var for var, s in enumerate(per_var) if s == POS)
    neg = sum(1 << var for var, s in enumerate(per_var) if s == NEG)
    return Cube(n, pos, neg)


def random_cover(rng: random.Random, n: int, k: int) -> Cover:
    """A seeded random cover: each variable pos/neg/absent per cube."""
    return Cover(n, tuple(from_states(n, [rng.randrange(3) for _ in range(n)])
                          for _ in range(k)))


def ref_literals(cube: Cube) -> int:
    return sum(s != ABSENT for s in states(cube))


def ref_covers(a: Cube, b: Cube) -> bool:
    return all(x in (ABSENT, y) for x, y in zip(states(a), states(b)))


def ref_distance(a: Cube, b: Cube) -> int:
    return sum({x, y} == {POS, NEG} for x, y in zip(states(a), states(b)))


def ref_difference_vars(a: Cube, b: Cube) -> list[int]:
    """The variables whose states differ: the ESOP distance support."""
    return [var for var, (x, y) in enumerate(zip(states(a), states(b)))
            if x != y]


def ref_intersection(a: Cube, b: Cube) -> Cube | None:
    if ref_distance(a, b):
        return None
    return from_states(a.n, [x or y for x, y in zip(states(a), states(b))])


def ref_cofactor(cube: Cube, by: Cube) -> Cube | None:
    if ref_distance(cube, by):
        return None
    return from_states(cube.n, [ABSENT if y else x
                                for x, y in zip(states(cube), states(by))])


def ref_scc(cubes) -> tuple[Cube, ...]:
    """The distinct cubes no other cube strictly contains, fewest
    literals first, ties in input order."""
    kept: list[Cube] = []
    for cube in sorted(cubes, key=ref_literals):
        if cube in kept:
            continue
        if any(other != cube and ref_covers(other, cube) for other in cubes):
            continue
        kept.append(cube)
    return tuple(kept)


def literal_holds(cube: Cube, var: int, value: int) -> bool:
    state = states(cube)[var]
    return state == ABSENT or state == (POS if value else NEG)


def xor_at(pair, u: int, x: int, v: int, y: int) -> int:
    """The pair's XOR at ``u = x, v = y`` where both share all else."""
    return sum(literal_holds(c, u, x) and literal_holds(c, v, y)
               for c in pair) & 1


# Widths straddle the 64-bit word boundary so multi-word masks are hit.
CASES = [(seed, n, k) for seed in (0, 1, 2) for n in (4, 9, 63, 70)
         for k in (0, 1, 7, 20)]


@pytest.mark.parametrize("seed,n,k", CASES)
def test_roundtrip_and_literal_counts(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    rows = ["".join("-10"[s] for s in states(cube)) for cube in cover.cubes]
    assert [cube.to_string() for cube in cover.cubes] == rows
    assert Cover.from_cubes(n, map(Cube.from_string, rows)) == cover
    expected = [ref_literals(cube) for cube in cover.cubes]
    assert [cube.num_literals for cube in cover.cubes] == expected
    assert cover.num_literals == sum(expected)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_pairwise_matrices_match_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = random_cover(rng, n, k).cubes
    for i, a in enumerate(cubes):
        for j, b in enumerate(cubes):
            assert a.covers(b) == ref_covers(a, b), (i, j)
            assert a.distance(b) == ref_distance(a, b), (i, j)
            assert _difference_vars(a, b) == ref_difference_vars(a, b), (i, j)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_single_cube_queries_match_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    probe = random_cover(rng, n, 1).cubes[0]
    for i, cube in enumerate(cover.cubes):
        assert _difference_vars(cube, probe) == \
            ref_difference_vars(cube, probe), i
        assert cube.intersects(probe) == (ref_distance(cube, probe) == 0), i
        assert cube.cofactor_cube(probe) == ref_cofactor(cube, probe), i
    expected = [ref_cofactor(cube, probe) for cube in cover.cubes]
    assert cover.cofactor_cube(probe).cubes == \
        tuple(cube for cube in expected if cube is not None)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_intersection_with_matches_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    a = random_cover(rng, n, k)
    b = random_cover(rng, n, max(1, k // 2))
    meets = []
    for i, ca in enumerate(a.cubes):
        for j, cb in enumerate(b.cubes):
            expected = ref_intersection(ca, cb)
            assert ca.intersects(cb) == (expected is not None), (i, j)
            assert ca.intersection(cb) == expected, (i, j)
            if expected is not None:
                meets.append(expected)
    assert a.intersection(b).cubes == ref_scc(meets)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_scc_matches_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = list(random_cover(rng, n, k).cubes)
    # Random wide cubes almost never contain one another, so plant
    # duplicates and one-literal-smaller cubes for the scan to drop.
    for cube in list(cubes):
        if rng.random() < 0.3:
            cubes.insert(rng.randrange(len(cubes) + 1), cube)
        free = [var for var, s in enumerate(states(cube)) if s == ABSENT]
        if free and rng.random() < 0.5:
            var = rng.choice(free)
            grown = [s if v != var else rng.choice((POS, NEG))
                     for v, s in enumerate(states(cube))]
            cubes.insert(rng.randrange(len(cubes) + 1), from_states(n, grown))
    cover = Cover(n, tuple(cubes))
    assert cover.single_cube_containment().cubes == ref_scc(cover.cubes)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_exorlink_pairs_match_scalar_scan(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = random_cover(rng, n, k).cubes
    expected = [
        (i, j)
        for i in range(len(cubes))
        for j in range(i + 1, len(cubes))
        if len(ref_difference_vars(cubes[i], cubes[j])) == 2
    ]
    rewritten = list(cubes)
    changed = _exorlink_pass(rewritten)
    moved = tuple(index for index, (old, new)
                  in enumerate(zip(cubes, rewritten)) if old != new)
    if not changed:
        assert moved == ()
        return
    # The scan rewrites exactly one distance-2 pair ...
    assert moved in expected
    i, j = moved
    u, v = ref_difference_vars(cubes[i], cubes[j])
    old, new = (cubes[i], cubes[j]), (rewritten[i], rewritten[j])
    # ... leaves every other variable's state alone ...
    for before, after in zip(old, new):
        kept = [var for var in range(n) if var not in (u, v)]
        assert [states(before)[var] for var in kept] == \
            [states(after)[var] for var in kept]
    # ... keeps the pair's XOR over (u, v), hence the cover's function ...
    for x in (0, 1):
        for y in (0, 1):
            assert xor_at(old, u, x, v, y) == xor_at(new, u, x, v, y), (x, y)
    # ... and only when the new pair unlocks a distance <= 1 reduction.
    others = [c for index, c in enumerate(rewritten) if index not in (i, j)]
    assert len(ref_difference_vars(*new)) <= 1 or any(
        len(ref_difference_vars(c, other)) <= 1
        for c in new for other in others)


def test_scc_drops_duplicates_and_contained_cubes():
    cover = Cover.from_strings(["1---", "11--", "1---", "--0-", "--01"])
    got = cover.single_cube_containment()
    assert got.cubes == (
        Cube.from_string("1---"),
        Cube.from_string("--0-"),
    )


def test_popcount_words_matches_bit_count():
    rng = random.Random(7)
    # Cube masks wider than one machine word must count across it.
    values = [rng.getrandbits(64) for _ in range(64)] + [
        0, 2**64 - 1, 2**70 - 1, rng.getrandbits(140)]
    for value in values:
        assert popcount(value) == sum(
            value >> bit & 1 for bit in range(value.bit_length()))
    # The per-width table polarity search prices FPRM literals with.
    for n in range(13):
        assert _index_popcounts(n).tolist() == [
            sum(m >> bit & 1 for bit in range(n)) for m in range(1 << n)]
