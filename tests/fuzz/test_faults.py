"""Fault injection self-tests — the acceptance proof for the harness.

An intentionally injected fault (a lost FPRM cube, a reduction rule
applied with its guard disabled, a colliding cache key) must be (a)
caught by the differential oracles and (b) shrunk by the delta debugger
to a minimal PLA reproducer.  These tests pin both halves, and also that
injection cleanly restores the patched seams.  The run faults
(``worker-hang``, ``budget-starvation``) must reach the options every
run starts with.
"""

from __future__ import annotations

import pytest

from repro.circuits import get
from repro.circuits.generators import make_parity
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.expr.pla import pla_from_spec, write_pla
from repro.fuzz.faults import FAULTS, RECOVERED_FAULTS, inject_fault
from repro.fuzz.oracles import run_oracle
from repro.fuzz.runner import FuzzConfig, FuzzRunner
from repro.network.blif import write_blif
from repro.network.to_expr import spec_from_pla_text
from repro.obs.metrics import get_metrics_registry


def _parity_spec(nbits=4):
    spec = make_parity(nbits)
    return spec_from_pla_text(write_pla(pla_from_spec(spec)), name=spec.name)


def test_drop_fprm_cube_is_caught_on_parity():
    spec = _parity_spec()
    with inject_fault("drop-fprm-cube"):
        findings = run_oracle("cube-vs-ofdd", spec)
    assert findings, "disabled FPRM cube went undetected"
    assert any(f.witness is not None for f in findings)
    # The patch is reverted: the same oracle passes again.
    assert run_oracle("cube-vs-ofdd", spec) == []


def test_unguarded_xor_to_or_is_caught_on_parity():
    spec = _parity_spec()
    with inject_fault("unguarded-xor-to-or"):
        findings = run_oracle("cube-vs-ofdd", spec)
    assert findings, "unguarded XOR->OR reduction went undetected"
    assert run_oracle("cube-vs-ofdd", spec) == []


def test_injected_fault_is_caught_and_shrunk_to_minimal_pla():
    """End-to-end: campaign catches the fault and shrinks the repro."""
    config = FuzzConfig(
        seed=1,
        iterations=10,
        oracles=("cube-vs-ofdd",),
        properties=(),
        max_failures=1,
    )
    with inject_fault("drop-fprm-cube"):
        report = FuzzRunner(config).run()
    assert not report.ok
    failure = report.failures[0]
    assert failure.shrunk is not None
    assert failure.shrunk.rows_after <= failure.shrunk.rows_before
    assert failure.shrunk.rows_after <= 4, failure.shrunk.pla_text
    assert failure.shrunk.inputs_after <= 2, failure.shrunk.pla_text
    # The shrunk reproducer still fails under the fault ...
    shrunk_spec = spec_from_pla_text(failure.shrunk.pla_text)
    with inject_fault("drop-fprm-cube"):
        assert run_oracle("cube-vs-ofdd", shrunk_spec)
    # ... and passes without it (i.e. it is a true regression guard).
    assert run_oracle("cube-vs-ofdd", shrunk_spec) == []


def test_cache_key_collision_is_caught_by_cache_oracle():
    config = FuzzConfig(
        seed=3,
        iterations=30,
        oracles=("cache-vs-uncached",),
        properties=(),
        shrink=False,
        max_failures=1,
    )
    with inject_fault("cache-key-collision"):
        report = FuzzRunner(config).run()
    assert not report.ok
    assert report.failures[0].check == "cache-vs-uncached"


def test_worker_hang_fault_arms_the_watchdog():
    """Every rd53 worker hangs; the watchdog the fault sets kills the
    pool once, and all three outputs are recovered in-process."""
    spec = get("rd53")
    clean = synthesize_fprm(spec, SynthesisOptions(verify=False))
    registry = get_metrics_registry()
    kills = registry.counter("resilience.watchdog_kills").value
    fallbacks = registry.counter("resilience.serial_fallbacks").value
    with inject_fault("worker-hang"):
        hung = synthesize_fprm(spec, SynthesisOptions(verify=False, jobs=2))
    assert registry.counter("resilience.watchdog_kills").value == kills + 1
    assert registry.counter("resilience.serial_fallbacks").value == fallbacks + 3
    assert write_blif(hung.network) == write_blif(clean.network)


def test_budget_starvation_fault_starves_every_run():
    spec = get("rd53")
    starved = synthesize_fprm(spec, SynthesisOptions(verify=False, budget_seconds=0.0))
    assert starved.trace.degradations
    with inject_fault("budget-starvation"):
        faulted = synthesize_fprm(spec, SynthesisOptions(verify=False))
    assert faulted.trace.degradations == starved.trace.degradations
    # The patch is reverted: the next run keeps its full effort.
    clean = synthesize_fprm(spec, SynthesisOptions(verify=False))
    assert clean.trace.degradations == []


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        with inject_fault("not-a-fault"):
            pass


def test_none_fault_is_noop():
    with inject_fault(None):
        pass


def test_fault_registry_names_are_stable():
    assert set(FAULTS) == {
        "drop-fprm-cube",
        "unguarded-xor-to-or",
        "cache-key-collision",
        "worker-crash",
        "worker-hang",
        "cache-corrupt-entry",
        "budget-starvation",
    }
    assert RECOVERED_FAULTS < set(FAULTS)
    # The detected/recovered split is a partition: a fault is either
    # expected to fail the campaign or expected to be survived.
    assert set(FAULTS) - RECOVERED_FAULTS == {
        "drop-fprm-cube",
        "unguarded-xor-to-or",
        "cache-key-collision",
    }
