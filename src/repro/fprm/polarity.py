"""Polarity-vector search for FPRM forms.

The FPRM form of a function is canonical per polarity vector, but the cube
count varies wildly across the 2^n vectors — picking a good one is the
classical fixed-polarity minimization problem.  The paper uses the FPRM
form "only as the initial specification", so a decent vector is enough:

* ``exhaustive`` — the cube and literal counts of all 2^n vectors from
  one extended Reed-Muller transform (3^n coefficients, O(n·3^n) numpy
  work), up to 12 variables;
* ``greedy`` — hill climbing by single-variable flips from the
  all-positive vector, O(passes · n · 2^n);
* ``positive`` — the PPRM (all-positive) vector, always available, the only
  choice for wide-support functions that have no dense table.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import BudgetExceededError
from repro.obs.metrics import get_metrics_registry
from repro.resilience.budget import current_budget, note_degradation
from repro.truth.spectra import (
    extended_rm_spectrum,
    fprm_spectrum,
    spectrum_flip_polarity,
)
from repro.truth.table import TruthTable


class PolarityStrategy(str, enum.Enum):
    POSITIVE = "positive"
    GREEDY = "greedy"
    EXHAUSTIVE = "exhaustive"
    AUTO = "auto"


_EXHAUSTIVE_MAX_VARS = 12

_POPCOUNT_TABLES: dict[int, np.ndarray] = {}


def _index_popcounts(n: int) -> np.ndarray:
    """Popcount of every spectrum index ``0..2^n-1`` (cached per width)."""
    table = _POPCOUNT_TABLES.get(n)
    if table is None:
        table = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):
            half = 1 << i
            table[half:2 * half] = table[:half] + 1
        _POPCOUNT_TABLES[n] = table
    return table


def _cost(spectrum: np.ndarray, n: int) -> tuple[int, int]:
    """(cube count, literal count) — lexicographic minimization target.

    A nonzero spectrum entry at index ``m`` is one FPRM cube whose
    literal count is ``popcount(m)``; spectra are 0/1 ``uint8`` arrays,
    so the literal total is one dot product against a per-width popcount
    table and the greedy climb's per-flip cost check is O(2^n) numpy
    instead of a Python loop over the nonzero masks.
    """
    cubes = int(np.count_nonzero(spectrum))
    literals = int(spectrum.dot(_index_popcounts(n)))
    return cubes, literals


def best_polarity_greedy(table: TruthTable, start: int | None = None) -> int:
    """Hill-climb single-variable polarity flips until no improvement.

    The ladder's safety rung: when the run budget expires mid-climb the
    best vector found *so far* is returned (any polarity vector yields a
    correct FPRM form, only its size suffers), so this function degrades
    instead of raising.
    """
    n = table.n
    budget = current_budget()
    universe = (1 << n) - 1
    polarity = universe if start is None else (start & universe)
    spectrum = fprm_spectrum(table, polarity)
    cost = _cost(spectrum, n)
    improved = True
    while improved:
        improved = False
        for var in range(n):
            if budget is not None and budget.expired():
                note_degradation("polarity-greedy", "partial-climb",
                                 "greedy flip loop")
                return polarity
            candidate = spectrum_flip_polarity(spectrum, n, var)
            candidate_cost = _cost(candidate, n)
            if candidate_cost < cost:
                spectrum = candidate
                cost = candidate_cost
                polarity ^= 1 << var
                improved = True
    return polarity


def best_polarity_exhaustive(table: TruthTable) -> int:
    """The vector with the fewest FPRM cubes, then the fewest literals,
    then the largest value, over all 2^n polarity vectors.

    The extended Reed-Muller vector holds every polarity's coefficients;
    folding each ternary axis back to two entries counts them.  On one
    axis a cube at digit 2 (the variable is in it) belongs to both
    polarities and carries one more literal::

        cubes'[d] = cubes[d] + cubes[2]
        literals'[d] = literals[d] + literals[2] + cubes[2]

    The fold runs from the outermost (slowest-varying) axis inward, so
    each step reads contiguous blocks.  Index ``k`` of the folded arrays
    has bit ``i`` set where variable ``i`` is negative (digit 1): it is
    polarity ``universe ^ k``.
    """
    n = table.n
    if n > _EXHAUSTIVE_MAX_VARS:
        raise ValueError(
            f"exhaustive polarity search refused for {n} variables "
            f"(max {_EXHAUSTIVE_MAX_VARS}); use greedy"
        )
    budget = current_budget()
    if budget is not None:
        # Entry check: an already-starved run (budget 0, or exhausted by
        # earlier outputs) falls to greedy before the transform is built.
        budget.check("polarity-exhaustive")
    # Up to 12 variables a polarity has at most 2^12 = 4096 cubes and
    # 12·2^11 = 24,576 literals, so uint16 holds both counts.
    cubes = extended_rm_spectrum(table).astype(np.uint16)
    literals = np.zeros_like(cubes)
    for var in reversed(range(n)):
        if budget is not None:
            budget.check("polarity-exhaustive")
        axis_cubes = cubes.reshape(-1, 3, 3 ** var)
        axis_literals = literals.reshape(-1, 3, 3 ** var)
        both = axis_cubes[:, 2:, :]
        cubes = axis_cubes[:, :2, :] + both
        literals = axis_literals[:, :2, :] + axis_literals[:, 2:, :] + both
    # One uint32 key orders (cubes, literals); argmin returns the first
    # minimum, the smallest index, which is the largest polarity.
    key = (cubes.reshape(-1).astype(np.uint32) << 16) | literals.reshape(-1)
    return ((1 << n) - 1) ^ int(np.argmin(key))


def choose_polarity(
    table: TruthTable, strategy: PolarityStrategy = PolarityStrategy.AUTO
) -> int:
    """Pick a polarity vector per the requested strategy.

    ``AUTO`` runs the exhaustive search up to 12 variables (cheap at these
    sizes) and greedy hill climbing above that.  ``EXHAUSTIVE`` does the
    same above the ceiling, counting each such output in the
    ``fprm.polarity.exhaustive_capped`` counter.

    Degradation ladder (budget exhaustion, see docs/RESILIENCE.md):
    exhaustive → greedy → best-so-far/all-positive.  Every rung yields a
    *correct* polarity vector — a worse vector only costs FPRM cubes —
    so a budget-starved search still feeds a sound flow.
    """
    if strategy == PolarityStrategy.POSITIVE:
        return (1 << table.n) - 1
    if strategy == PolarityStrategy.GREEDY:
        return best_polarity_greedy(table)
    if table.n > _EXHAUSTIVE_MAX_VARS:
        if strategy == PolarityStrategy.EXHAUSTIVE:
            get_metrics_registry().counter(
                "fprm.polarity.exhaustive_capped",
                "outputs above the 12-input ceiling whose exhaustive "
                "polarity search ran greedy",
            ).inc()
        return best_polarity_greedy(table)
    try:
        return best_polarity_exhaustive(table)
    except BudgetExceededError:
        note_degradation("polarity", "greedy", "exhaustive scan")
        return best_polarity_greedy(table)
