"""The process pool: one cache client, counters counted once, a pinned
start method, and workers that die with their owner."""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm
from repro.flow import parallel
from repro.flow.cache import get_result_cache
from repro.flow.disk_cache import DiskCacheTier
from repro.flow.parallel import CRASH_FAULT_ENV
from repro.flow.passes import DEFAULT_OUTPUT_PASSES
from repro.network.blif import write_blif
from repro.obs.metrics import get_metrics_registry
from repro.serve.gauntlet import child_pids, kill_and_reap_orphans


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    yield
    get_result_cache().clear()


def _delta(before, after, name):
    return after.get(name, 0) - before.get(name, 0)


def test_pooled_run_writes_each_disk_entry_once(tmp_path, monkeypatch):
    """The driver is the only cache client: a pooled run with a disk
    tier writes every entry once, from this process, and this process's
    registry counts every disk miss and every put."""
    spec = get("z4ml")
    writes = tmp_path / "writes"
    store = DiskCacheTier.store_entry

    def logged_store(self, key, entry):
        # Forked workers inherit this patch, so the log names every
        # process that writes an entry.
        with open(writes, "a", encoding="ascii") as log:
            log.write(f"{os.getpid()}\n")
        return store(self, key, entry)

    monkeypatch.setattr(DiskCacheTier, "store_entry", logged_store)
    registry = get_metrics_registry()
    before = registry.counter_values("cache.disk.")
    cache = get_result_cache()
    cache.attach_disk(DiskCacheTier(tmp_path / "cache"))
    try:
        result = synthesize_fprm(
            spec, SynthesisOptions(verify=False, jobs=2, cache=True)
        )
    finally:
        cache.detach_disk()
    after = registry.counter_values("cache.disk.")

    assert result.trace.parallel_fallback is None
    assert writes.read_text().split() == [str(os.getpid())] * spec.num_outputs
    assert _delta(before, after, "cache.disk.misses") == spec.num_outputs
    assert _delta(before, after, "cache.disk.puts") == spec.num_outputs
    assert result.trace.cache_misses == spec.num_outputs


def test_crash_fallback_counts_each_outputs_work_once(monkeypatch):
    """Outputs recovered in-process after every worker crashed count
    their OFDD work once: the run's counters equal the serial run's."""
    spec = get("z4ml")
    serial = synthesize_fprm(spec, SynthesisOptions(verify=False))
    fallbacks = get_metrics_registry().counter("resilience.serial_fallbacks")
    before = fallbacks.value

    monkeypatch.setenv(CRASH_FAULT_ENV, f"{os.getpid()}:*")
    recovered = synthesize_fprm(spec, SynthesisOptions(verify=False, jobs=2))

    assert fallbacks.value - before == spec.num_outputs
    pool_span = recovered.trace.root.find("parallel-map")
    assert pool_span.attrs["recovered"] == spec.num_outputs
    assert recovered.trace.metrics == serial.trace.metrics
    assert recovered.trace.metrics.get("ofdd.apply.calls", 0) > 0
    assert write_blif(recovered.network) == write_blif(serial.network)


def test_one_pool_then_one_in_process_run_per_lost_output(monkeypatch):
    """A crash on one output ends the one pool the call builds; every
    output without a pool result then runs once in-process, and the
    BLIF is byte-identical to serial."""
    spec = get("z4ml")
    serial = synthesize_fprm(spec, SynthesisOptions(verify=False))
    pools = []
    in_process = []
    new_pool, runner = parallel._new_pool, parallel.run_output

    def spy_pool(workers):
        pools.append(workers)
        return new_pool(workers)

    def spy_runner(output, options):
        # Forked workers inherit the spy, but their appends stay in
        # their own memory: this list sees in-process runs only.
        in_process.append(output.name)
        return runner(output, options)

    monkeypatch.setattr(parallel, "_new_pool", spy_pool)
    monkeypatch.setattr(parallel, "run_output", spy_runner)
    crashing = spec.outputs[0].name
    monkeypatch.setenv(CRASH_FAULT_ENV, f"{os.getpid()}:{crashing}")
    result = synthesize_fprm(spec, SynthesisOptions(verify=False, jobs=2))

    assert pools == [2]
    assert crashing in in_process
    assert len(set(in_process)) == len(in_process)  # once each
    pool_span = result.trace.root.find("parallel-map")
    assert pool_span.attrs["recovered"] == len(in_process)
    # Each output ran in exactly one place: its span is a worker's or
    # this process's.
    by_pool = {node.name.removeprefix("output:")
               for node in pool_span.children if node.pid != os.getpid()}
    assert by_pool.isdisjoint(in_process)
    assert by_pool | set(in_process) == set(spec.output_names)
    assert write_blif(result.network) == write_blif(serial.network)


def test_serial_fork_and_spawn_pools_agree(monkeypatch):
    """Serial, ``fork`` and ``spawn`` runs give byte-identical BLIF and
    the same counters, and each output's six passes reach the trace."""
    spec = get("z4ml")
    serial = synthesize_fprm(spec, SynthesisOptions())
    for method in ("fork", "spawn"):
        monkeypatch.setattr(
            parallel, "POOL_CONTEXT", multiprocessing.get_context(method)
        )
        result = synthesize_fprm(spec, SynthesisOptions(jobs=2))
        trace = result.trace
        assert trace.parallel_fallback is None, method
        assert write_blif(result.network) == write_blif(serial.network), method
        assert trace.metrics == serial.trace.metrics, method
        for output in spec.outputs:
            passes = [r.pass_name for r in trace.records_for(output=output.name)]
            assert passes == list(DEFAULT_OUTPUT_PASSES), (method, output.name)
        pool_span = trace.root.find("parallel-map")
        assert any(node.pid != os.getpid() for node in pool_span.walk()), method


_SYNTHESIS_LOOP = """
from repro.circuits.generators import make_multiplier
from repro.core.options import SynthesisOptions
from repro.core.synthesis import synthesize_fprm

spec = make_multiplier(6)
while True:
    synthesize_fprm(spec, SynthesisOptions(jobs=2, verify=False, trace=False))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="lists processes through /proc"
)
def test_pool_workers_die_with_their_owner():
    """A SIGKILLed owner leaves no pool worker running 5 s later."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    owner = subprocess.Popen([sys.executable, "-c", _SYNTHESIS_LOOP], env=env)
    try:
        deadline = time.monotonic() + 60
        while len(child_pids(owner.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        started = len(child_pids(owner.pid))
    finally:
        survivors = kill_and_reap_orphans(owner)
    assert started >= 2, "the owner never started its pool"
    assert not survivors, f"pool workers {survivors} outlived their owner"
