"""The batched exhaustive polarity search against brute force.

``best_polarity_exhaustive`` reads every polarity's cube and literal
counts out of one extended Reed-Muller vector.  The references here
derive each FPRM spectrum on its own through ``fprm_spectrum``, or walk
the vectors one flip at a time as the search used to.
"""

import numpy as np
import pytest

from repro.circuits.generators import (
    make_adder,
    make_comparator,
    make_multiplier,
    make_weight,
)
from repro.fprm.polarity import best_polarity_exhaustive
from repro.truth.spectra import (
    extended_rm_spectrum,
    fprm_spectrum,
    spectrum_flip_polarity,
)
from repro.truth.table import TruthTable


def brute_force_polarity(table: TruthTable) -> int:
    """argmin of (cubes, literals, -polarity) over all 2^n vectors."""
    popcounts = np.array([bin(m).count("1") for m in range(1 << table.n)])

    def key(polarity):
        spectrum = fprm_spectrum(table, polarity)
        return (int(spectrum.sum()), int(spectrum.dot(popcounts)), -polarity)

    return min(range(1 << table.n), key=key)


def gray_walk_polarity(table: TruthTable) -> int:
    """The earlier search: all 2^n vectors in Gray-code order, one
    single-variable flip of the spectrum per step."""
    n = table.n
    popcounts = np.array([bin(m).count("1") for m in range(1 << n)])
    polarity = best = (1 << n) - 1
    spectrum = fprm_spectrum(table, polarity)
    best_cost = (int(spectrum.sum()), int(spectrum.dot(popcounts)))
    for step in range(1, 1 << n):
        var = (step & -step).bit_length() - 1
        spectrum = spectrum_flip_polarity(spectrum, n, var)
        polarity ^= 1 << var
        cost = (int(spectrum.sum()), int(spectrum.dot(popcounts)))
        if cost < best_cost or (cost == best_cost and polarity > best):
            best_cost, best = cost, polarity
    return best


DENSITIES = (0.5, 0.1, 0.9, 0.02)


def seeded_tables(n: int, seed: int) -> list[TruthTable]:
    rng = np.random.default_rng(seed)
    return [TruthTable(n, (rng.random(1 << n) < d).astype(np.uint8))
            for d in DENSITIES]


def test_every_table_up_to_three_inputs():
    for n in range(4):
        for bits in range(1 << (1 << n)):
            table = TruthTable(n, np.array(
                [(bits >> m) & 1 for m in range(1 << n)], dtype=np.uint8))
            assert best_polarity_exhaustive(table) == \
                brute_force_polarity(table), (n, bits)


@pytest.mark.parametrize("n", range(4, 9))
def test_seeded_tables_four_to_eight_inputs(n):
    for table in seeded_tables(n, seed=n):
        assert best_polarity_exhaustive(table) == brute_force_polarity(table)


@pytest.mark.parametrize("n", range(4, 11))
def test_same_vector_as_the_gray_walk(n):
    for table in seeded_tables(n, seed=200 + n):
        assert best_polarity_exhaustive(table) == gray_walk_polarity(table)


@pytest.mark.parametrize("n", range(9))
def test_extended_vector_slices_are_the_fprm_spectra(n):
    for table in seeded_tables(n, seed=100 + n):
        extended = extended_rm_spectrum(table)
        assert extended.shape == (3 ** n,)
        weights = 3 ** np.arange(n)
        # digits[p, S, i]: 2 when variable i is in cube S, otherwise 0
        # for a positive and 1 for a negative variable of polarity p.
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        in_cube = bits[None, :, :]
        negative = 1 - bits[:, None, :]
        digits = 2 * in_cube + (1 - in_cube) * negative
        slices = extended[(digits * weights).sum(axis=-1)]
        for polarity in range(1 << n):
            assert np.array_equal(slices[polarity],
                                  fprm_spectrum(table, polarity)), polarity


#: The exhaustively searched outputs of the 12-input arithmetic
#: workload (every output of at most 12 inputs) and the vector the
#: earlier Gray-code walk over all 2^n polarities chose for each.
ARITH12_POLARITIES = {
    "adder6": {"s0": 4095, "s1": 4095, "s2": 4095, "s3": 4095, "s4": 4095,
               "s5": 4095, "cout": 4095},
    "cmp6": {"gt": 63, "lt": 4032, "eq": 4032},
    "weight12": {"w0": 4095, "w1": 4095, "w2": 4095, "w3": 4095},
    "mult5": {"p0": 1023, "p1": 1023, "p2": 1023, "p3": 1023, "p4": 1023,
              "p5": 1023, "p6": 1023, "p7": 1023, "p8": 1023, "p9": 561},
    "mult6": {"p0": 4095, "p1": 4095, "p2": 4095, "p3": 4095, "p4": 4095,
              "p5": 4095, "p6": 4095, "p7": 4095, "p8": 4095, "p9": 4095,
              "p10": 4095, "p11": 2080},
}


def test_arith12_polarities_pinned():
    specs = {"adder6": make_adder(6), "cmp6": make_comparator(6),
             "weight12": make_weight(12), "mult5": make_multiplier(5),
             "mult6": make_multiplier(6)}
    chosen = {
        label: {output.name: best_polarity_exhaustive(output.local_table())
                for output in spec.outputs if output.width <= 12}
        for label, spec in specs.items()
    }
    assert chosen == ARITH12_POLARITIES
    assert sum(len(outputs) for outputs in chosen.values()) == 36
