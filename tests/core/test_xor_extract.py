"""GF(2) fast-extract (the paper's 'more elegant factorization' hook)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.xor_extract import extract_xor_divisors

N = 5
mask_lists = st.lists(
    st.integers(0, (1 << N) - 1), min_size=1, max_size=10, unique=True
)


def evaluate(extraction, minterm):
    memo = {}

    def cube_val(cube):
        value = 1
        for lit in range(cube.bit_length()):
            if cube >> lit & 1:
                value &= lit_val(lit)
        return value

    def lit_val(lit):
        if lit < extraction.num_literals:
            return (minterm >> lit) & 1
        if lit not in memo:
            parity = 0
            for cube in extraction.divisors[lit]:
                parity ^= cube_val(cube)
            memo[lit] = parity
        return memo[lit]

    value = 0
    for cube in extraction.functions[0]:
        value ^= cube_val(cube)
    return value


@given(mask_lists)
@settings(max_examples=200, deadline=None)
def test_extraction_preserves_function(masks):
    extraction = extract_xor_divisors([masks], N)
    for m in range(1 << N):
        want = 0
        for mask in masks:
            if (m & mask) == mask:
                want ^= 1
        assert evaluate(extraction, m) == want


def test_extracts_shared_xor_subsum():
    # x0(x2⊕x3) ⊕ x1(x2⊕x3): divisor (x2⊕x3) extracted once.
    masks = [0b0101, 0b1001, 0b0110, 0b1010]
    extraction = extract_xor_divisors([masks], 4)
    assert len(extraction.divisors) >= 1
    bodies = list(extraction.divisors.values())
    assert [0b0100, 0b1000] in bodies


def test_cross_output_sharing():
    # Both outputs contain the x0⊕x1 sub-sum under different contexts.
    f1 = [0b0101, 0b0110]  # x2(x0 ⊕ x1)
    f2 = [0b1001, 0b1010]  # x3(x0 ⊕ x1)
    extraction = extract_xor_divisors([f1, f2], 4)
    assert len(extraction.divisors) == 1
    var = next(iter(extraction.divisors))
    for function in extraction.functions:
        assert len(function) == 1
        assert next(iter(function)) >> var & 1


def test_no_extraction_on_disjoint_cubes():
    extraction = extract_xor_divisors([[0b0011, 0b1100]], 4)
    assert extraction.divisors == {}


@given(mask_lists)
@settings(max_examples=100, deadline=None)
def test_extraction_never_increases_literals(masks):
    extraction = extract_xor_divisors([masks], N)
    before = sum(bin(m).count("1") for m in masks)
    after = sum(
        c.bit_count() for c in extraction.functions[0]
    ) + sum(c.bit_count() for body in extraction.divisors.values() for c in body)
    # +1 tolerance: the heuristic may pay a literal to expose structure.
    assert after <= before + 1
