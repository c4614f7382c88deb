"""Run-cache contract for the hybrid engine rung.

The ``"hybrid"`` key enters the scenario payload ONLY when
``engine="hybrid"`` (same dormancy pattern as ``"control"``), so every
run-cache entry for the bit-identical engines keeps its exact spec
hash (pinned in test_spec_cache_keys.py).
"""

from repro.harness.parallel import SpecTemplate
from repro.sim.hybrid import HybridConfig
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig


def test_payload_has_no_hybrid_key_for_other_engines():
    for engine in ("reference", "turbo"):
        payload = ScenarioConfig(engine=engine).to_payload()
        assert "hybrid" not in payload, engine
    clone = ScenarioConfig.from_payload(ScenarioConfig().to_payload())
    assert clone.hybrid is None


def test_hybrid_payload_round_trip():
    on = ScenarioConfig(engine="hybrid", hybrid={"window": 3, "guard": 2.0})
    payload = on.to_payload()
    assert payload["hybrid"]["window"] == 3
    back = ScenarioConfig.from_payload(payload)
    assert back.engine == "hybrid"
    assert back.hybrid.to_payload() == on.hybrid.to_payload()
    # engine="hybrid" with default knobs still records the key (None),
    # so hybrid runs never collide with turbo runs in the cache.
    default = ScenarioConfig(engine="hybrid").to_payload()
    assert "hybrid" in default
    assert default["hybrid"] is None


def test_hybrid_config_distinguishes_cache_keys():
    base = dict(scale=50.0, seed=7, monitor_period=0.5,
                timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2))
    turbo = SpecTemplate(
        "n_series", ScenarioConfig(engine="turbo", **base),
        n=2, policy="servartuka",
    ).at(9000.0, 4.0, 2.0)
    hybrid = SpecTemplate(
        "n_series", ScenarioConfig(engine="hybrid", **base),
        n=2, policy="servartuka",
    ).at(9000.0, 4.0, 2.0)
    tuned = SpecTemplate(
        "n_series",
        ScenarioConfig(engine="hybrid", hybrid=HybridConfig(window=3), **base),
        n=2, policy="servartuka",
    ).at(9000.0, 4.0, 2.0)
    keys = {turbo.key(), hybrid.key(), tuned.key()}
    assert len(keys) == 3
