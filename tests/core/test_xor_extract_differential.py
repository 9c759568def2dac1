"""Bitmask fast-extract against a frozenset reference.

``repro.core.xor_extract`` keeps each cube as an int bitmask of its
literal ids.  The reference below is the same algorithm on frozensets of
literal ids; both must pick the same divisors in the same order and
rewrite every function identically, literal ids of 64 and above
included.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import xor_extract
from repro.core.xor_extract import extract_xor_divisors


def ref_best_divisor(functions, divisor_bodies):
    count = Counter()
    quotient_lits = Counter()
    for cubes in functions + divisor_bodies:
        pairs = 0
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                pairs += 1
                if pairs > xor_extract._MAX_PAIRS_PER_FUNCTION:
                    break
                common = cubes[i] & cubes[j]
                a = cubes[i] - common
                b = cubes[j] - common
                if not a or not b:
                    continue
                pair = (a, b) if sorted(a) <= sorted(b) else (b, a)
                count[pair] += 1
                quotient_lits[pair] += len(common)
            if pairs > xor_extract._MAX_PAIRS_PER_FUNCTION:
                break
    best = None
    best_value = 0
    for pair, occurrences in count.items():
        if occurrences < 2:
            continue
        lits_d = len(pair[0]) + len(pair[1])
        saving = quotient_lits[pair] + occurrences * (lits_d - 1) - lits_d
        if saving > best_value:
            best_value = saving
            best = pair
    return best, best_value


def ref_apply(functions, divisors, var, divisor):
    a, b = divisor

    def rewrite(cubes):
        present = set(cubes)
        used = set()
        replacements = []
        for cube in cubes:
            if cube in used or not a <= cube:
                continue
            q = cube - a
            partner = q | b
            if (
                not (q & b)
                and partner != cube
                and partner in present
                and partner not in used
            ):
                used.add(cube)
                used.add(partner)
                replacements.append(q | {var})
        return [c for c in cubes if c not in used] + replacements

    functions = [rewrite(f) for f in functions]
    divisors = {v: rewrite(body) for v, body in divisors.items()}
    divisors[var] = [a, b]
    return functions, divisors


def ref_extract(masks_per_output, num_literals):
    functions = [[to_cube(m) for m in masks] for masks in masks_per_output]
    divisors = {}
    var = num_literals
    for _ in range(xor_extract._MAX_ITERATIONS):
        divisor, value = ref_best_divisor(functions, list(divisors.values()))
        if divisor is None or value <= 0:
            break
        functions, divisors = ref_apply(functions, divisors, var, divisor)
        var += 1
    return functions, divisors


def to_cube(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def to_mask(cube):
    return sum(1 << lit for lit in cube)


@st.composite
def cube_sets(draw):
    """Cubes over a few literal ids drawn from 0..99, so pairs recur."""
    ids = draw(st.lists(st.integers(0, 99), min_size=2, max_size=7,
                        unique=True))
    subsets = st.lists(st.sampled_from(ids), max_size=len(ids)).map(
        lambda lits: sum(1 << lit for lit in set(lits)))
    outputs = draw(st.lists(
        st.lists(subsets, min_size=1, max_size=12, unique=True),
        min_size=1, max_size=3))
    return outputs, max(ids) + 1


def assert_matches_reference(masks_per_output, num_literals):
    extraction = extract_xor_divisors(masks_per_output, num_literals)
    functions, divisors = ref_extract(masks_per_output, num_literals)
    assert list(extraction.divisors) == list(divisors)
    assert [[to_mask(c) for c in body] for body in divisors.values()] == \
        list(extraction.divisors.values())
    assert [[to_mask(c) for c in f] for f in functions] == \
        extraction.functions
    assert extraction.next_var == num_literals + len(divisors)


@given(cube_sets())
@settings(max_examples=200, deadline=None)
def test_bitmask_extraction_matches_frozenset_reference(case):
    assert_matches_reference(*case)


@given(cube_sets(), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_pair_cap_truncates_identically(case, cap):
    # Both sides count only the first ``cap`` pairs of each function.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(xor_extract, "_MAX_PAIRS_PER_FUNCTION", cap)
        assert_matches_reference(*case)


@given(cube_sets())
@settings(max_examples=100, deadline=None)
def test_first_divisor_and_value_match(case):
    masks_per_output, _ = case
    got = xor_extract._best_divisor([list(m) for m in masks_per_output], [])
    want, value = ref_best_divisor(
        [[to_cube(m) for m in masks] for masks in masks_per_output], [])
    assert got[1] == value
    assert got[0] == (None if want is None
                      else (to_mask(want[0]), to_mask(want[1])))


def test_high_literal_ids_extract():
    # x70(x64 ⊕ x65) ⊕ x71(x64 ⊕ x65): one divisor over ids 64 and 65.
    masks = [1 << 70 | 1 << 64, 1 << 70 | 1 << 65,
             1 << 71 | 1 << 64, 1 << 71 | 1 << 65]
    extraction = extract_xor_divisors([masks], 72)
    assert extraction.divisors == {72: [1 << 64, 1 << 65]}
    assert sorted(extraction.functions[0]) == [1 << 70 | 1 << 72,
                                               1 << 71 | 1 << 72]
