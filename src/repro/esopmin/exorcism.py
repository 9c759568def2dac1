"""Iterative ESOP minimization by cube-pair transformations.

Cube state per variable: positive literal, negative literal, or absent.
For two cubes at distance d (number of variables whose states differ):

* d = 0 — identical cubes cancel (``C ⊕ C = 0``);
* d = 1 — the pair merges into one cube whose differing variable takes
  the *merge state*: ``{pos,neg} → absent``, ``{pos,absent} → neg``,
  ``{neg,absent} → pos`` (e.g. ``x·C ⊕ C = x̄·C``);
* d = 2 — exorlink-2 rewrites the pair into another pair of the same
  total size, which can unlock further d ≤ 1 reductions:

      A ⊕ B = [aᵤ, m(a_v,b_v), R] ⊕ [m(aᵤ,bᵤ), b_v, R]

  (derived from ``a_u a_v ⊕ b_u b_v = a_u(a_v ⊕ b_v) ⊕ (a_u ⊕ b_u)b_v``).

The minimizer applies d ≤ 1 reductions to a fixpoint, then greedily
accepts exorlink-2 rewrites that enable an immediate reduction, for a
bounded number of rounds.
"""

from __future__ import annotations

from repro.errors import BudgetExceededError
from repro.expr.cube import Cube
from repro.expr.esop import EsopCover, FprmForm
from repro.obs.spans import span as obs_span
from repro.resilience.budget import (
    budget_tick,
    current_budget,
    note_degradation,
)
from repro.utils.bitops import bit_indices

_MAX_ROUNDS = 12


def esop_from_fprm(form: FprmForm) -> EsopCover:
    """An FPRM form as a general (mixed-polarity) ESOP."""
    return EsopCover(form.n, form.cube_objects())


def minimize_esop(cover: EsopCover, rounds: int = _MAX_ROUNDS) -> EsopCover:
    """Minimize cube count (then literal count) of an ESOP.

    The quadratic pair scans check the ambient run budget cooperatively;
    on exhaustion the cover minimized *so far* is returned (every
    intermediate state of the reduce/exorlink rewrites represents the
    same function, so a truncated run is correct — just larger).  Exact
    AND-XOR minimization is known to blow up on adversarial instances,
    which is precisely why this loop must be interruptible.
    """
    cubes = list(cover.cubes)
    trajectory = [len(cubes)]
    degraded = False
    with obs_span("esop-minimize", category="algo") as node:
        try:
            budget = current_budget()
            if budget is not None:
                # Entry check: small covers finish under the tick stride,
                # so an exhausted budget must degrade here, not in-loop.
                budget.check("esop-minimize")
            for _ in range(rounds):
                cubes, changed_merge = _reduce_pass(cubes)
                changed_link = _exorlink_pass(cubes)
                trajectory.append(len(cubes))
                if not changed_merge and not changed_link:
                    break
        except BudgetExceededError as err:
            degraded = True
            note_degradation("esop-minimize", "partial-minimization",
                             err.where)
            trajectory.append(len(cubes))
        if node is not None:
            node.set(
                cubes_in=trajectory[0],
                cubes_out=len(cubes),
                rounds=len(trajectory) - 1,
                trajectory=trajectory,
                degraded=degraded,
            )
    return EsopCover(cover.n, tuple(cubes))


def _state(cube: Cube, var: int) -> int:
    bit = 1 << var
    if cube.pos & bit:
        return 1
    if cube.neg & bit:
        return 2
    return 0


def _with_state(cube: Cube, var: int, state: int) -> Cube:
    bit = 1 << var
    pos = cube.pos & ~bit
    neg = cube.neg & ~bit
    if state == 1:
        pos |= bit
    elif state == 2:
        neg |= bit
    return Cube(cube.n, pos, neg)


def _merge_state(a: int, b: int) -> int:
    # XOR of the per-variable state functions: {x, x̄, 1}.
    return {frozenset({1, 2}): 0, frozenset({1, 0}): 2,
            frozenset({2, 0}): 1}[frozenset({a, b})]


def _difference_vars(a: Cube, b: Cube) -> list[int]:
    mask = (a.pos ^ b.pos) | (a.neg ^ b.neg)
    return list(bit_indices(mask))


def _reduce_pass(cubes: list[Cube]) -> tuple[list[Cube], bool]:
    """Cancel d=0 pairs and merge d=1 pairs until no pair qualifies."""
    changed = False
    progress = True
    while progress:
        progress = False
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                # Checked before any rewrite, so an interrupt always
                # leaves a function-preserving intermediate cover.
                budget_tick("esop-reduce")
                diff = _difference_vars(cubes[i], cubes[j])
                if len(diff) == 0:
                    del cubes[j], cubes[i]
                    progress = changed = True
                    break
                if len(diff) == 1:
                    var = diff[0]
                    merged = _with_state(
                        cubes[i], var,
                        _merge_state(_state(cubes[i], var),
                                     _state(cubes[j], var)),
                    )
                    del cubes[j], cubes[i]
                    cubes.append(merged)
                    progress = changed = True
                    break
            if progress:
                break
    return cubes, changed


def _exorlink_pass(cubes: list[Cube]) -> bool:
    """Greedy exorlink-2: accept a rewrite if it enables a d≤1 reduction."""
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            budget_tick("esop-exorlink")
            diff = _difference_vars(cubes[i], cubes[j])
            if len(diff) != 2:
                continue
            u, v = diff
            for first, second in ((u, v), (v, u)):
                a, b = cubes[i], cubes[j]
                new_a = _with_state(
                    a, second,
                    _merge_state(_state(a, second), _state(b, second)),
                )
                new_b = _with_state(
                    b, first,
                    _merge_state(_state(a, first), _state(b, first)),
                )
                if _enables_reduction(cubes, i, j, new_a, new_b):
                    cubes[i] = new_a
                    cubes[j] = new_b
                    return True
    return False


def _enables_reduction(cubes: list[Cube], i: int, j: int,
                       new_a: Cube, new_b: Cube) -> bool:
    for index, other in enumerate(cubes):
        if index in (i, j):
            continue
        for candidate in (new_a, new_b):
            if len(_difference_vars(candidate, other)) <= 1:
                return True
    return len(_difference_vars(new_a, new_b)) <= 1
