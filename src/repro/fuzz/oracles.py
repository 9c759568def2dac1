"""Differential oracles: independent paths must agree, and all must
match the specification.

Each oracle takes a :class:`~repro.spec.CircuitSpec` and returns a list
of :class:`Finding` objects (empty = everything agreed).  Synthesis runs
with ``verify=False`` so that a functional mismatch surfaces as a
finding — with a counterexample minterm attached — instead of a raised
:class:`~repro.errors.VerificationError`; a crash inside the flow is
itself a finding (fuzzers treat exceptions as failures, not noise).

``HEAVY_ORACLES`` marks the oracles whose fixed per-run cost dwarfs the
synthesis work on fuzz-sized specs (today: the process-pool comparison);
the runner executes them on a cadence instead of every case.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.core.options import FactorMethod, SynthesisOptions
from repro.core.synthesis import SynthesisResult
from repro.engine import EngineConfig, SynthesisEngine
from repro.flow.cache import get_result_cache
from repro.fprm.polarity import PolarityStrategy
from repro.network.verify import (
    counterexample,
    equivalent_to_spec,
    networks_equivalent,
)
from repro.spec import CircuitSpec

__all__ = ["Finding", "HEAVY_ORACLES", "ORACLES", "run_oracle"]


@dataclass(frozen=True)
class Finding:
    """One detected disagreement (or crash) with replay context."""

    check: str
    detail: str
    witness: int | None = None

    def format(self) -> str:
        text = f"[{self.check}] {self.detail}"
        if self.witness is not None:
            text += f" (counterexample minterm {self.witness:#x})"
        return text


_BASE = SynthesisOptions(verify=False, trace=False)

#: Every oracle synthesis routes through one shared engine (no disk
#: tier — oracles that want one build their own scoped engine).
_ENGINE = SynthesisEngine(EngineConfig(options=_BASE))


def _synthesize(spec: CircuitSpec, **overrides) -> SynthesisResult:
    return _ENGINE.synthesize(spec, **overrides)


def _check_spec(
    spec: CircuitSpec,
    result: SynthesisResult,
    oracle: str,
    label: str,
    findings: list[Finding],
) -> None:
    verdict = equivalent_to_spec(result.network, spec)
    if not verdict:
        findings.append(
            Finding(
                check=oracle,
                detail=(
                    f"{label} result differs from spec "
                    f"({verdict.method}: {verdict.detail})"
                ),
                witness=counterexample(result.network, spec),
            )
        )


def _check_cross(
    a: SynthesisResult,
    b: SynthesisResult,
    oracle: str,
    label: str,
    findings: list[Finding],
) -> None:
    verdict = networks_equivalent(a.network, b.network)
    if not verdict:
        findings.append(Finding(check=oracle, detail=f"{label}: {verdict.detail}"))


def oracle_cube_vs_ofdd(spec: CircuitSpec) -> list[Finding]:
    """Paper method 1 (cube factoring) vs. method 2 (OFDD factoring)."""
    findings: list[Finding] = []
    cube = _synthesize(spec, factor_method=FactorMethod.CUBE)
    ofdd = _synthesize(spec, factor_method=FactorMethod.OFDD)
    _check_spec(spec, cube, "cube-vs-ofdd", "cube-method", findings)
    _check_spec(spec, ofdd, "cube-vs-ofdd", "ofdd-method", findings)
    _check_cross(cube, ofdd, "cube-vs-ofdd", "methods disagree", findings)
    return findings


def oracle_polarity_variants(spec: CircuitSpec) -> list[Finding]:
    """Every polarity-search strategy must yield the same function."""
    findings: list[Finding] = []
    for strategy in (
        PolarityStrategy.POSITIVE,
        PolarityStrategy.GREEDY,
        PolarityStrategy.EXHAUSTIVE,
    ):
        result = _synthesize(spec, polarity_strategy=strategy)
        _check_spec(
            spec,
            result,
            "polarity-variants",
            f"strategy={strategy.value}",
            findings,
        )
    return findings


def oracle_cache_vs_uncached(spec: CircuitSpec) -> list[Finding]:
    """A cache hit must reproduce the uncached result bit-for-bit."""
    findings: list[Finding] = []
    get_result_cache().clear()
    cold = _synthesize(spec, cache=True)
    warm = _synthesize(spec, cache=True)
    plain = _synthesize(spec, cache=False)
    _check_spec(spec, cold, "cache-vs-uncached", "cache-cold", findings)
    _check_spec(spec, warm, "cache-vs-uncached", "cache-warm", findings)
    _check_spec(spec, plain, "cache-vs-uncached", "uncached", findings)
    _check_cross(warm, plain, "cache-vs-uncached", "warm vs uncached", findings)
    for label, cached in (("cold", cold), ("warm", warm)):
        if (
            cached.literals != plain.literals
            or cached.two_input_gates != plain.two_input_gates
        ):
            findings.append(
                Finding(
                    check="cache-vs-uncached",
                    detail=(
                        f"cache-{label} metrics diverge: "
                        f"{cached.two_input_gates} gates/"
                        f"{cached.literals} lits vs uncached "
                        f"{plain.two_input_gates}/{plain.literals}"
                    ),
                )
            )
    return findings


def oracle_disk_cache_vs_uncached(spec: CircuitSpec) -> list[Finding]:
    """A *disk* cache hit must reproduce the uncached result bit-for-bit.

    Runs the flow three ways: cold (populating a throwaway disk tier),
    warm-from-disk (memory tier cleared in between, so the entry must
    round-trip through JSON serialization on disk), and plain uncached.
    Any divergence means the disk round trip altered the result.
    """
    findings: list[Finding] = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        with SynthesisEngine(
            EngineConfig(options=_BASE, cache_dir=tmp)
        ) as engine:
            cache = get_result_cache()
            cache.clear()
            cold = engine.synthesize(spec, cache=True)
            cache.clear()  # force the warm run through the disk tier
            disk_hits_before = cache.stats.disk_hits
            warm = engine.synthesize(spec, cache=True)
            disk_hits = cache.stats.disk_hits - disk_hits_before
        plain = _synthesize(spec, cache=False)
    oracle = "disk-cache-vs-uncached"
    if disk_hits == 0:
        findings.append(
            Finding(
                check=oracle,
                detail="warm run hit the disk tier 0 times "
                       "(expected at least one disk hit)",
            )
        )
    _check_spec(spec, cold, oracle, "disk-cold", findings)
    _check_spec(spec, warm, oracle, "disk-warm", findings)
    _check_spec(spec, plain, oracle, "uncached", findings)
    _check_cross(warm, plain, oracle, "disk-warm vs uncached", findings)
    for label, cached in (("cold", cold), ("warm", warm)):
        if (
            cached.literals != plain.literals
            or cached.two_input_gates != plain.two_input_gates
        ):
            findings.append(
                Finding(
                    check=oracle,
                    detail=(
                        f"disk-{label} metrics diverge: "
                        f"{cached.two_input_gates} gates/"
                        f"{cached.literals} lits vs uncached "
                        f"{plain.two_input_gates}/{plain.literals}"
                    ),
                )
            )
    return findings


def oracle_serial_vs_parallel(spec: CircuitSpec) -> list[Finding]:
    """``--jobs 2`` must be bit-identical to the serial run."""
    findings: list[Finding] = []
    serial = _synthesize(spec, jobs=1)
    parallel = _synthesize(spec, jobs=2)
    _check_spec(spec, serial, "serial-vs-parallel", "serial", findings)
    _check_spec(spec, parallel, "serial-vs-parallel", "jobs=2", findings)
    _check_cross(serial, parallel, "serial-vs-parallel", "serial vs jobs=2", findings)
    if (
        serial.literals != parallel.literals
        or serial.two_input_gates != parallel.two_input_gates
    ):
        findings.append(
            Finding(
                check="serial-vs-parallel",
                detail=(
                    f"metrics diverge: serial "
                    f"{serial.two_input_gates} gates/{serial.literals} lits "
                    f"vs jobs=2 {parallel.two_input_gates}/"
                    f"{parallel.literals}"
                ),
            )
        )
    return findings


def oracle_degradation_ladder(spec: CircuitSpec) -> list[Finding]:
    """A budget-starved run must still produce a spec-equivalent network.

    ``budget_seconds=0`` starves every stage, forcing the whole effort-
    degradation ladder (greedy polarity, partial ESOP minimization, cube
    or direct-specification fallbacks).  Whatever rungs were taken, the
    degraded network must compute the same function as the full-effort
    one — degradation may only ever cost gates, never correctness.
    """
    findings: list[Finding] = []
    full = _synthesize(spec)
    starved = _synthesize(spec, budget_seconds=0.0)
    _check_spec(spec, full, "degradation-ladder", "full-effort", findings)
    _check_spec(spec, starved, "degradation-ladder", "budget-starved",
                findings)
    _check_cross(starved, full, "degradation-ladder",
                 "starved vs full-effort", findings)
    return findings


ORACLES = {
    "cube-vs-ofdd": oracle_cube_vs_ofdd,
    "polarity-variants": oracle_polarity_variants,
    "cache-vs-uncached": oracle_cache_vs_uncached,
    "disk-cache-vs-uncached": oracle_disk_cache_vs_uncached,
    "serial-vs-parallel": oracle_serial_vs_parallel,
    "degradation-ladder": oracle_degradation_ladder,
}

#: Oracles with a large fixed cost per run (pool spin-up); the runner
#: executes these every ``heavy_every``-th case instead of every case.
HEAVY_ORACLES = frozenset({"serial-vs-parallel"})


def run_oracle(name: str, spec: CircuitSpec) -> list[Finding]:
    """Run one oracle, converting crashes into findings."""
    try:
        return ORACLES[name](spec)
    except Exception as exc:  # noqa: BLE001 — crashes are findings
        return [Finding(check=name, detail=f"crash: {type(exc).__name__}: {exc}")]
