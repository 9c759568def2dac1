"""Wall-clock budgets: deadline checks, strided ticks, ambient install."""

import pytest

from repro.errors import BudgetExceededError
from repro.resilience.budget import (
    TICK_STRIDE,
    Budget,
    budget_tick,
    current_budget,
    install_budget,
    note_degradation,
)


@pytest.fixture(autouse=True)
def no_ambient_budget():
    previous = install_budget(None)
    yield
    install_budget(previous)


def test_unlimited_budget_never_fires():
    budget = Budget.start(None)
    assert budget.deadline is None
    assert budget.remaining() == float("inf")
    assert not budget.expired()
    budget.check("anywhere")
    for _ in range(3 * TICK_STRIDE):
        budget.tick("hot-loop")


def test_exhausted_budget_raises_with_location():
    budget = Budget.start(0.0)
    assert budget.expired()
    assert budget.remaining() == 0.0
    with pytest.raises(BudgetExceededError) as info:
        budget.check("polarity-scan")
    assert info.value.where == "polarity-scan"


def test_tick_is_strided():
    budget = Budget.start(0.0)
    # The first TICK_STRIDE - 1 ticks never read the clock ...
    for _ in range(TICK_STRIDE - 1):
        budget.tick("loop")
    # ... the stride boundary does, and fires.
    with pytest.raises(BudgetExceededError):
        budget.tick("loop")


def test_until_adopts_an_existing_deadline():
    parent = Budget.start(60.0)
    child = Budget.until(parent.deadline)
    assert child.deadline == parent.deadline
    assert not child.expired()
    assert Budget.until(None).deadline is None


def test_install_returns_previous_and_ambient_tick_routes():
    assert current_budget() is None
    budget_tick("no-budget")  # cheap no-op without a budget

    outer = Budget.start(None)
    inner = Budget.start(0.0)
    assert install_budget(outer) is None
    assert install_budget(inner) is outer
    assert current_budget() is inner
    with pytest.raises(BudgetExceededError):
        for _ in range(TICK_STRIDE):
            budget_tick("ambient-loop")
    assert install_budget(outer) is inner
    assert current_budget() is outer


def test_degradation_notes_accumulate_and_drain():
    budget = Budget.start(None)
    install_budget(budget)
    note_degradation("polarity", "greedy", where="polarity-scan")
    note_degradation("esop-minimize", "partial")
    drained = budget.drain_degradations()
    assert [record.label() for record in drained] == \
        ["polarity->greedy", "esop-minimize->partial"]
    assert drained[0].where == "polarity-scan"
    assert drained[0].as_dict() == {
        "stage": "polarity", "fallback": "greedy", "where": "polarity-scan",
    }
    # Drain hands ownership over: the budget starts fresh.
    assert budget.drain_degradations() == []

    # Without an ambient budget the note is a silent no-op.
    install_budget(None)
    note_degradation("polarity", "greedy")
    assert budget.degradations == []

