"""Chaos acceptance: synthesis under injected crashes, hangs and cache
corruption must stay bit-identical to an unfaulted serial run.

These tests attack the infrastructure — pool workers, cached bytes,
wall-clock — never the mathematics, so the resilience layer has to
absorb every fault and hand back the exact same networks.  The faults
ride the same environment seams the fuzz campaign uses
(:mod:`repro.fuzz.faults`), with the origin-pid guard keeping the
in-process serial recovery path clean.
"""

import os

import pytest

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.flow.cache import ResultCache, cache_key, get_result_cache
from repro.flow.parallel import CRASH_FAULT_ENV, HANG_FAULT_ENV
from repro.fuzz.faults import inject_fault
from repro.network.blif import write_blif
from repro.network.verify import equivalent_to_spec
from repro.obs.metrics import get_metrics_registry
from repro.spec import CircuitSpec, OutputSpec
from repro.truth.table import TruthTable


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    yield
    get_result_cache().clear()


def _counter(name):
    return get_metrics_registry().counter(name)


def _chaos_spec(num_outputs=10):
    """A 10-output spec: enough lanes that crash, hang and corruption
    can all land on different outputs of one run."""
    outputs = [
        OutputSpec(
            f"o{i}",
            (0, 1, 2, 3),
            table=TruthTable.from_function(
                4, lambda m, i=i: ((m * (2 * i + 3)) >> (i % 4)) & 1
            ),
        )
        for i in range(num_outputs)
    ]
    return CircuitSpec(name="chaos10", num_inputs=4, outputs=outputs)


def test_acceptance_chaos_run_is_bit_identical_to_serial(monkeypatch):
    """One worker crashes, one hangs past the watchdog, every cache
    store is tampered with — and the 10-output result is still
    bit-identical to the unfaulted serial run, with the recovery work
    visible in the resilience metrics."""
    spec = _chaos_spec()
    baseline = synthesize_fprm(spec, SynthesisOptions(verify=False))
    blif = write_blif(baseline.network)

    retries = _counter("resilience.retries").value
    fallbacks = _counter("resilience.serial_fallbacks").value

    pid = os.getpid()
    monkeypatch.setenv(CRASH_FAULT_ENV, f"{pid}:o2")
    monkeypatch.setenv(HANG_FAULT_ENV, f"{pid}:o6:30")
    options = SynthesisOptions(verify=False, jobs=2, cache=True,
                               timeout_per_output=0.75, retries=1)
    with inject_fault("cache-corrupt-entry"):
        first = synthesize_fprm(spec, options)
        # The first run stored (and tampered) every entry; the second
        # must quarantine them all and recompute from scratch.
        quarantined = set()
        record = ResultCache._record_corruption

        def spy(key):
            quarantined.add(key)
            record(key)

        monkeypatch.setattr(ResultCache, "_record_corruption",
                            staticmethod(spy))
        second = synthesize_fprm(spec, options)

    for result in (first, second):
        assert [r.name for r in result.reports] == spec.output_names
        assert write_blif(result.network) == blif
        assert equivalent_to_spec(result.network, spec)
        assert not result.trace.degradations  # faults, not budgets

    # The crash breaks the pool before the watchdog window elapses, so
    # the hung worker is reaped with the broken pool rather than by the
    # watchdog (whose metric the dedicated hang test below pins down).
    assert _counter("resilience.retries").value > retries
    assert _counter("resilience.serial_fallbacks").value > fallbacks
    # Per key, not a count: outputs that share a function share a key,
    # and how many extra quarantines the serial fallback adds depends
    # on where the crash lands.
    assert {cache_key(o, options) for o in spec.outputs} <= quarantined
    assert second.trace.cache_hits == 0  # nothing corrupt was served
    assert first.trace.retries > 0  # per-run provenance in the trace


def test_acceptance_budget_starvation_degrades_but_stays_correct():
    """The third leg of the chaos triad: a zero budget forces the whole
    effort-degradation ladder, which may cost gates but never
    correctness — and the rungs taken are counted."""
    spec = _chaos_spec(4)
    degradations = _counter("resilience.degradations").value

    starved = synthesize_fprm(
        spec, SynthesisOptions(verify=False, budget_seconds=0.0)
    )
    assert starved.trace.degradations
    assert _counter("resilience.degradations").value > degradations
    assert equivalent_to_spec(starved.network, spec)
    full = synthesize_fprm(spec, SynthesisOptions(verify=False))
    from repro.network.verify import networks_equivalent

    assert networks_equivalent(starved.network, full.network)


def test_worker_exit_mid_batch_keeps_completed_outputs(monkeypatch):
    """Satellite: ``os._exit(1)`` in the worker handling one output must
    not lose the outputs that already completed in the same pool — the
    batch finishes bit-identical to serial."""
    spec = get("z4ml")
    serial = synthesize_fprm(spec, SynthesisOptions(verify=False))

    fallbacks = _counter("resilience.serial_fallbacks").value
    monkeypatch.setenv(CRASH_FAULT_ENV, f"{os.getpid()}:{spec.outputs[0].name}")
    survived = synthesize_fprm(
        spec, SynthesisOptions(verify=False, jobs=2, retries=1)
    )

    assert survived.trace.parallel_fallback is None  # the pool did run
    assert [r.name for r in survived.reports] == spec.output_names
    assert write_blif(survived.network) == write_blif(serial.network)
    # The crashing output was recovered in-process (the origin-pid guard
    # disarms the fault there); pool retries could never finish it.
    assert _counter("resilience.serial_fallbacks").value > fallbacks


def test_hung_worker_is_killed_and_recovered(monkeypatch):
    spec = get("rd53")
    serial = synthesize_fprm(spec, SynthesisOptions(verify=False))

    watchdogs = _counter("resilience.watchdog_kills").value
    pid = os.getpid()
    monkeypatch.setenv(HANG_FAULT_ENV, f"{pid}:{spec.outputs[0].name}:60")
    recovered = synthesize_fprm(
        spec,
        SynthesisOptions(verify=False, jobs=2, retries=0,
                         timeout_per_output=0.5),
    )

    assert _counter("resilience.watchdog_kills").value > watchdogs
    assert write_blif(recovered.network) == write_blif(serial.network)
