"""Run-cache contract for the sharded engine rung.

The ``"shards"`` key enters the scenario payload ONLY when
``engine="sharded"`` (the same dormancy pattern as ``"control"``), so every pre-sharded run-cache entry keeps its exact
spec hash (pinned in test_spec_cache_keys.py).
"""

import pytest

from repro.harness.parallel import SpecTemplate
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig


def test_payload_has_no_shards_key_for_other_engines():
    for engine in ("reference", "turbo"):
        payload = ScenarioConfig(engine=engine).to_payload()
        assert "shards" not in payload, engine
    clone = ScenarioConfig.from_payload(ScenarioConfig().to_payload())
    assert clone.shards is None


def test_sharded_payload_round_trip():
    config = ScenarioConfig(engine="sharded", shards=4)
    payload = config.to_payload()
    assert payload["shards"] == 4
    back = ScenarioConfig.from_payload(payload)
    assert back.engine == "sharded"
    assert back.shards == 4
    # engine="sharded" with the default shard count still records the
    # key (1), so sharded runs never collide with turbo runs.
    default = ScenarioConfig(engine="sharded").to_payload()
    assert default["shards"] == 1


def test_shards_requires_sharded_engine():
    with pytest.raises(ValueError, match="shards"):
        ScenarioConfig(engine="turbo", shards=2)
    with pytest.raises(ValueError, match="shards"):
        ScenarioConfig(engine="sharded", shards=0)


def test_shard_count_distinguishes_cache_keys():
    base = dict(scale=50.0, seed=7, monitor_period=0.5,
                timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2))

    def key(engine, shards=None):
        return SpecTemplate(
            "n_series",
            ScenarioConfig(engine=engine, shards=shards, **base),
            n=2, policy="servartuka",
        ).at(9000.0, 4.0, 2.0).key()

    keys = {key("turbo"), key("sharded", 1), key("sharded", 2),
            key("sharded", 4)}
    assert len(keys) == 4
