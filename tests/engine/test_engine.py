"""The engine layer: options resolution, flow dispatch, cache wiring."""

import subprocess
import sys

import pytest

from repro.circuits import get
from repro.circuits.builders import expr_output, spec as build_spec
from repro.circuits.generators import make_parity
from repro.core.options import SynthesisOptions
from repro.engine import (
    CACHE_DIR_ENV,
    EngineConfig,
    SynthesisEngine,
    resolve_cache_dir,
    resolve_options,
)
from repro.expr import expression as ex
from repro.flow.cache import get_result_cache
from repro.fprm.polarity import PolarityStrategy
from repro.network.blif import write_blif
from repro.network.verify import networks_equivalent
from repro.obs.metrics import get_metrics_registry


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    get_result_cache().detach_disk()
    yield
    get_result_cache().clear()
    get_result_cache().detach_disk()


# -- options resolution -------------------------------------------------------


def test_resolve_options_folds_overrides():
    base = SynthesisOptions(jobs=4)
    resolved = resolve_options(base, verify=False, timeout_per_output=7.0)
    assert resolved.jobs == 4
    assert resolved.verify is False
    assert resolved.timeout_per_output == 7.0


def test_resolve_options_ignores_none():
    base = SynthesisOptions(jobs=4)
    assert resolve_options(base, jobs=None).jobs == 4


def test_resolve_cache_dir_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, "/from/env")
    assert resolve_cache_dir("/explicit") == "/explicit"
    assert resolve_cache_dir(None) == "/from/env"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert resolve_cache_dir(None) is None


def test_engine_config_rejects_unknown_flow():
    with pytest.raises(ValueError):
        EngineConfig(flow="mystery")


def test_engine_config_cache_dir_implies_cache(tmp_path):
    config = EngineConfig(cache_dir=str(tmp_path))
    assert config.options.cache is True


# -- dispatch -----------------------------------------------------------------


def test_engine_run_dispatches_both_flows():
    spec = get("z4ml")
    with SynthesisEngine(EngineConfig(
        options=SynthesisOptions(verify=False)
    )) as engine:
        fprm = engine.run(spec)
        assert fprm.flow == "fprm"
        assert fprm.result is not None
    with SynthesisEngine(EngineConfig(
        flow="sislite", options=SynthesisOptions(verify=False)
    )) as engine:
        base = engine.run(spec)
        assert base.flow.startswith("sislite (")
        assert base.baseline_script
    assert networks_equivalent(fprm.network, base.network)


def test_exhaustive_polarity_above_the_ceiling_runs_greedy():
    # 13 inputs is past the exhaustive ceiling but within the dense
    # route: the explicit request runs greedy, as AUTO does, and counts.
    spec = make_parity(13)
    capped = get_metrics_registry().counter("fprm.polarity.exhaustive_capped")
    before = capped.value
    with SynthesisEngine() as engine:
        exhaustive = engine.synthesize(
            spec, polarity_strategy=PolarityStrategy.EXHAUSTIVE)
        auto = engine.synthesize(spec, polarity_strategy=PolarityStrategy.AUTO)
    assert exhaustive.verify is not None and bool(exhaustive.verify)
    assert write_blif(exhaustive.network) == write_blif(auto.network)
    assert capped.value == before + 1


def test_pool_workers_ship_the_capped_count_home():
    xor13 = ex.xor_([ex.Lit(i) for i in range(13)])
    spec = build_spec("two-parity13", 14, [
        expr_output(f"p{k}", tuple(range(k, k + 13)), xor13) for k in (0, 1)
    ])
    capped = get_metrics_registry().counter("fprm.polarity.exhaustive_capped")
    before = capped.value
    with SynthesisEngine() as engine:
        result = engine.synthesize(
            spec, polarity_strategy=PolarityStrategy.EXHAUSTIVE, jobs=2,
            cache=False)
    assert bool(result.verify)
    assert capped.value == before + 2


def test_request_key_tracks_semantics():
    engine = SynthesisEngine()
    spec = get("rd53")
    key = engine.request_key(spec)
    assert key == engine.request_key(spec)
    assert key != engine.request_key(get("z4ml"))
    assert key != engine.request_key(spec, redundancy_removal=False)
    # verify/trace/jobs are non-semantic: same function, same key.
    assert key == engine.request_key(spec, verify=False, jobs=4)


# -- cache wiring -------------------------------------------------------------


def test_engine_attaches_and_detaches_disk_tier(tmp_path):
    cache = get_result_cache()
    with SynthesisEngine(EngineConfig(cache_dir=str(tmp_path))) as engine:
        assert cache.disk is engine.disk_tier
    assert cache.disk is None


def test_engine_close_leaves_foreign_tier_alone(tmp_path):
    cache = get_result_cache()
    first = SynthesisEngine(EngineConfig(cache_dir=str(tmp_path / "a")))
    second = SynthesisEngine(EngineConfig(cache_dir=str(tmp_path / "b")))
    # `second` attached last and owns the slot; closing `first` must not
    # rip out someone else's tier.
    assert cache.disk is second.disk_tier
    first.close()
    assert cache.disk is second.disk_tier
    second.close()
    assert cache.disk is None


_COLD_RUN = """
import json, sys
from repro.circuits import get
from repro.engine import EngineConfig, SynthesisEngine
from repro.flow.cache import get_result_cache
from repro.network.blif import write_blif
from repro.obs.metrics import get_metrics_registry

with SynthesisEngine(EngineConfig(cache_dir=sys.argv[1])) as engine:
    result = engine.synthesize(get("rd53"))
registry = get_metrics_registry()
print(json.dumps({
    "blif": write_blif(result.network),
    "gates": result.two_input_gates,
    "disk_hits": get_result_cache().stats.disk_hits,
    "metric_hits": registry.counter("cache.disk.hits", "").value,
}))
"""


def test_acceptance_cold_process_disk_hit(tmp_path):
    """A previously synthesized benchmark re-run in a *new process* is a
    disk-cache hit with a bit-identical result and a recorded
    ``cache.disk.hits`` metric."""
    def cold_run():
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_RUN, str(tmp_path)],
            capture_output=True, text=True, check=True,
        )
        import json
        return json.loads(proc.stdout)

    first = cold_run()
    assert first["disk_hits"] == 0  # nothing cached yet
    second = cold_run()
    assert second["disk_hits"] == get("rd53").num_outputs
    assert second["metric_hits"] == second["disk_hits"]
    assert second["blif"] == first["blif"]
    assert second["gates"] == first["gates"]
