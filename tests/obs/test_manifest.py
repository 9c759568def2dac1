"""Run manifests: digests, fingerprints, dict round trip."""

import json

from repro.circuits import get
from repro.core.options import SynthesisOptions
from repro.flow import cache
from repro.obs.manifest import (
    RunManifest,
    options_fingerprint,
    spec_digest,
)
from repro.obs.schema import validate_manifest


def test_spec_digest_is_stable_and_content_sensitive():
    z4ml = get("z4ml")
    assert spec_digest(z4ml) == spec_digest(get("z4ml"))
    assert spec_digest(z4ml) != spec_digest(get("rd53"))


def test_options_fingerprint_tracks_semantic_knobs_only():
    base = SynthesisOptions()
    assert options_fingerprint(base) == options_fingerprint(
        SynthesisOptions(verify=False, jobs=8, trace=False, cache=True)
    )
    assert options_fingerprint(base) != options_fingerprint(
        SynthesisOptions(redundancy_removal=False)
    )


def test_for_run_fills_environment_fields():
    manifest = RunManifest.for_run(get("rd53"), SynthesisOptions(), jobs=2)
    assert manifest.circuit == "rd53"
    assert manifest.num_inputs == 5 and manifest.num_outputs == 3
    assert manifest.package_version
    assert manifest.python and manifest.platform
    assert manifest.created_unix > 0
    assert manifest.extra == {"jobs": 2}


def test_dict_roundtrip_and_schema():
    manifest = RunManifest.for_run(get("rd53"), SynthesisOptions())
    payload = json.loads(json.dumps(manifest.as_dict()))
    assert validate_manifest(payload) == []
    clone = RunManifest.from_dict(payload)
    assert clone == manifest


def test_default_options_fingerprint_is_pinned(monkeypatch):
    # The options part of every result-cache key, run manifest and serve
    # request key: a new value orphans every stored entry and request.
    options = SynthesisOptions()
    assert options_fingerprint(options) == "71c31d79a46149b7"
    output = get("rd53").outputs[0]
    assert cache.cache_key(output, options) == \
        f"{cache.output_digest(output)}/71c31d79a46149b7"
    # The cache key computes no fingerprint of its own.
    monkeypatch.setattr(cache, "options_fingerprint", lambda _: "patched")
    assert cache.cache_key(output, options).endswith("/patched")
