"""Differential battery for the overload-control layer.

Every control policy must be bit-identical between the reference and
turbo engines: the controllers are deterministic (no RNG -- fractional
admission is a counter comparison, rate admission a token bucket over
``loop.now``), so the full fingerprint of a controlled run -- metrics
registries, call outcomes, packet/event accounting -- plus every
proxy's per-period controller decision trace must match the reference
engine exactly.

Reuses the drive/fingerprint machinery of
:mod:`tests.engine.test_differential`, extended with the decision logs
and admission counters.
"""

import pytest

from repro.workloads.scenarios import ScenarioConfig, two_series

from tests.engine.test_differential import (
    TIMERS,
    _fingerprint,
    _first_divergence,
)

SEEDS = (1, 3, 5)

#: Offered load, paper cps.  Well past the controlled two-series knee
#: at this scale so every policy actually sheds (asserted below).
OVERLOAD_RATE = 14_000


def _config(engine: str, seed: int, control: str) -> ScenarioConfig:
    return ScenarioConfig(
        scale=100.0,
        seed=seed,
        monitor_period=0.5,
        timers=TIMERS,
        engine=engine,
        reject_queue_delay=0.0,
        control=control,
    )


def _controlled_fingerprint(engine: str, seed: int, control: str,
                            policy: str = "static") -> dict:
    scenario = two_series(OVERLOAD_RATE, policy=policy,
                          config=_config(engine, seed, control))
    fingerprint = _fingerprint(scenario)
    fingerprint["control"] = {
        name: {
            "stats": proxy.control.stats(),
            "decisions": list(proxy.control.decision_log),
        }
        for name, proxy in sorted(scenario.proxies.items())
        if proxy.control is not None
    }
    return fingerprint


@pytest.mark.parametrize("control", ["rate", "window", "occupancy", "signal"])
def test_controlled_engines_bit_identical(control):
    for seed in SEEDS:
        reference, turbo = (
            _controlled_fingerprint(engine, seed, control)
            for engine in ("reference", "turbo")
        )
        # The battery must not be vacuous: the controller sheds and logs.
        rejected = sum(
            node["stats"]["rejected"]
            for node in reference["control"].values()
        )
        assert rejected > 0, f"{control}: no rejects at {OVERLOAD_RATE} cps"
        assert all(
            node["decisions"] for node in reference["control"].values()
        )
        assert turbo == reference, (
            f"{control} seed={seed}: turbo diverges from reference "
            f"-- " + _first_divergence(reference, turbo)
        )


def test_composed_engines_bit_identical():
    """SERvartuka state-shedding composed with call-shedding: the two
    feedback loops interleave on the same monitor timer, the harshest
    ordering case for the turbo engine."""
    for seed in SEEDS:
        reference, turbo = (
            _controlled_fingerprint(engine, seed, "occupancy",
                                    policy="servartuka")
            for engine in ("reference", "turbo")
        )
        assert turbo == reference, (
            f"composed seed={seed}: turbo diverges from reference "
            f"-- " + _first_divergence(reference, turbo)
        )
