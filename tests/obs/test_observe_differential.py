"""Observability must be a pure observer: enabling it changes nothing.

The contract (see docs/ARCHITECTURE.md) is that with ``observe=`` on,
every compared metric -- all node metric registries and the RunResult
payload -- is *bit-identical* to the same run with observability off.
This battery proves it across three scenario families and three seeds
on both rungs, and the reference rung's snapshot must equal turbo's.
"""

import pytest

from repro.harness.runner import fingerprint_partial, run_scenario
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import (
    ScenarioConfig,
    internal_external,
    n_series,
    single_proxy,
)

SEEDS = (7, 11, 23)

FAMILIES = {
    "single_proxy": lambda config: single_proxy(
        300.0, mode="transaction_stateful", config=config),
    "n_series": lambda config: n_series(
        2, 400.0, policy="servartuka", config=config),
    "internal_external": lambda config: internal_external(
        350.0, 0.5, policy="servartuka", config=config),
}


#: (seed, family, engine); a turbo case's id leaves the engine out.
CASES = [(seed, family, engine) for engine in ("turbo", "reference")
         for family in sorted(FAMILIES) for seed in SEEDS]


def _config(seed, observe, engine):
    return ScenarioConfig(
        engine=engine,
        scale=50.0,
        seed=seed,
        noise_sigma=0.30,
        monitor_period=0.5,
        timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2),
        observe=observe,
    )


def _fingerprint(builder, seed, observe, engine="turbo"):
    scenario = builder(_config(seed, observe, engine))
    result = run_scenario(scenario, duration=3.0, warmup=1.0)
    registries = fingerprint_partial(scenario, [])["registries"]
    return registries, result.to_payload(), scenario


@pytest.mark.parametrize(
    "seed, family, engine", CASES,
    ids=[f"{seed}-{family}" + ("" if engine == "turbo" else f"-{engine}")
         for seed, family, engine in CASES])
def test_observe_on_is_bit_identical(seed, family, engine):
    builder = FAMILIES[family]
    plain_registries, plain_payload, _ = _fingerprint(
        builder, seed, None, engine)
    obs_registries, obs_payload, scenario = _fingerprint(
        builder, seed, "all", engine)
    assert obs_registries == plain_registries
    assert obs_payload == plain_payload
    # ... while actually having observed something.
    assert scenario.observer is not None
    assert any(p.jobs > 0 for p in scenario.observer.profilers.values())
    if engine != "turbo":
        *_, turbo = _fingerprint(builder, seed, "all")
        assert scenario.observer.snapshot() == turbo.observer.snapshot()
