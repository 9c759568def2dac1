"""ESOP minimization: semantics preserved, sizes shrink."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.esopmin import esop_from_fprm, minimize_esop
from repro.expr.cube import Cube
from repro.expr.esop import EsopCover

N = 5


@st.composite
def esops(draw, n=N, max_cubes=8):
    count = draw(st.integers(0, max_cubes))
    cubes = []
    for _ in range(count):
        pos = draw(st.integers(0, (1 << n) - 1))
        neg = draw(st.integers(0, (1 << n) - 1)) & ~pos
        cubes.append(Cube(n, pos, neg))
    return EsopCover(n, tuple(cubes))


@given(esops())
@settings(max_examples=150, deadline=None)
def test_minimization_preserves_function(cover):
    minimized = minimize_esop(cover)
    for m in range(1 << N):
        assert minimized.evaluate(m) == cover.evaluate(m)


@given(esops())
@settings(max_examples=100, deadline=None)
def test_minimization_never_grows(cover):
    minimized = minimize_esop(cover)
    assert minimized.num_cubes <= cover.num_cubes


def test_distance0_cancellation():
    cube = Cube(3, 0b001, 0b010)
    cover = EsopCover(3, (cube, cube))
    assert minimize_esop(cover).num_cubes == 0


def test_distance1_merges():
    # x·C ⊕ x̄·C = C
    a = Cube(3, 0b011, 0)
    b = Cube(3, 0b010, 0b001)
    merged = minimize_esop(EsopCover(3, (a, b)))
    assert merged.num_cubes == 1
    assert merged.cubes[0] == Cube(3, 0b010, 0)
    # x·C ⊕ C = x̄·C
    c = Cube(3, 0b010, 0)
    merged2 = minimize_esop(EsopCover(3, (a, c)))
    assert merged2.num_cubes == 1
    assert merged2.cubes[0] == Cube(3, 0b010, 0b001)


def test_exorlink_unlocks_reduction():
    # x⊕y⊕(x·y) = x + y = 1 ⊕ x̄·ȳ: exorcism should reach 2 cubes.
    cover = EsopCover(2, (
        Cube(2, 0b01, 0), Cube(2, 0b10, 0), Cube(2, 0b11, 0),
    ))
    minimized = minimize_esop(cover)
    assert minimized.num_cubes <= 2
    for m in range(4):
        assert minimized.evaluate(m) == cover.evaluate(m)


def test_esop_beats_or_ties_fprm_on_mixed_function():
    # A function whose best FPRM needs more cubes than its best ESOP.
    from repro.fprm.polarity import best_polarity_exhaustive
    from repro.truth.spectra import fprm_from_table
    from repro.truth.table import TruthTable

    table = TruthTable.from_function(
        4, lambda m: int(m in (0b0001, 0b0010, 0b0100, 0b1000, 0b1111))
    )
    polarity = best_polarity_exhaustive(table)
    form = fprm_from_table(table, polarity)
    esop = minimize_esop(esop_from_fprm(form))
    assert esop.num_cubes <= form.num_cubes
    for m in range(16):
        assert esop.evaluate(m) == table[m]
