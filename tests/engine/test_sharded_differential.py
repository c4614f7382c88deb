"""Differential battery for the sharded engine rung.

The acceptance contract: ``engine="sharded"`` is bit-deterministic for
a fixed ``(seed, shards)`` pair and bit-identical to serial turbo --
same RunResult payload, same registries, outcomes, packet accounting
and myshare trajectories -- on generated chain/mesh topologies across
seeds and shard counts.  ``shards=1`` degenerates to one window per
measurement phase and must equal turbo exactly, including extras.

The battery pins the *inline* driver (deterministic, no process spawn
cost); one dedicated case asserts the process driver is bit-identical
to inline, which transitively extends every other assertion to it.
"""

import pathlib

import pytest

from repro.harness.parallel import _job_fingerprint, _job_scenario
from repro.harness.runner import run_scenario as run_live
from repro.sim.faults import FaultSchedule
from repro.workloads.scenarios import (
    ScenarioConfig,
    UnsupportedCombination,
    generated,
)
from repro.workloads.spec import ScenarioSpec

EXAMPLES = pathlib.Path(__file__).parents[2] / "examples" / "specs"

GENERATED_CASES = {
    "chain6_hetero": {"family": "chain", "size": 6, "heterogeneity": 0.4},
    "tree7_balancers": {"family": "tree", "size": 7, "heterogeneity": 0.0},
}
SEEDS = (1, 2, 3)
SHARD_COUNTS = (2, 4)
RATE = 150.0

_WINDOW = dict(duration=2.0, warmup=1.0, drain=0.5)
_CONFIG = {"scale": 100.0, "seed": 1, "monitor_period": 0.5}
#: The hand-wired and chain builders, each at one seed and 2 shards:
#: registrars, a B2BUA, mid-call re-INVITEs (through its example spec
#: file) and the plain series chain.
FAMILIES = {
    "register_churn": ScenarioSpec(
        "register_churn", 9_000.0, config=_CONFIG, params={
            "subscribers": 1_500, "refresh_interval": 1.0,
            "auth": "digest"}, **_WINDOW),
    "b2bua_chain": ScenarioSpec(
        "b2bua_chain", 9_000.0, config=_CONFIG,
        params={"policy": "servartuka"}, **_WINDOW),
    "heavy_tail": ScenarioSpec.from_path(EXAMPLES / "heavy_tail.toml"),
    "n_series": ScenarioSpec(
        "n_series", 11_000.0, config=_CONFIG,
        params={"n": 2, "policy": "servartuka"}, **_WINDOW),
}


def _payload(engine, case, seed, shards=None, kind="scenario"):
    config = {
        "scale": 100.0, "seed": seed, "engine": engine,
        "monitor_period": 0.5,
    }
    if engine == "sharded":
        config["shards"] = shards
    payload = {
        "builder": "generated",
        "kwargs": {
            "rate": RATE,
            "family": case["family"],
            "size": case["size"],
            "seed": seed,
            "heterogeneity": case["heterogeneity"],
            "policy": "servartuka",
        },
        "config": config,
    }
    if kind == "scenario":
        payload.update(duration=2.0, warmup=1.0, drain=0.5)
    else:
        payload.update(run_for=2.0, slices=6, drain=1.0)
    return payload


def _extras_without_sharded(job_output):
    extras = dict(job_output["extras"])
    extras.pop("sharded", None)
    return extras


@pytest.fixture(autouse=True)
def _inline_driver(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_DRIVER", "inline")


def _assert_identical(turbo, sharded, shards, what):
    assert sharded["result"] == turbo["result"], (
        f"{what}: RunResult diverges from serial turbo"
    )
    assert (
        _extras_without_sharded(sharded) == _extras_without_sharded(turbo)
    ), f"{what}: extras diverge"
    summary = sharded["extras"]["sharded"]
    assert summary["shards"] == shards
    assert summary["cross_messages"] > 0, (
        "no cross-shard traffic -- the partition is degenerate "
        "and the battery proves nothing"
    )


@pytest.mark.parametrize("name", sorted(GENERATED_CASES))
def test_sharded_bit_identical_to_turbo(name):
    case = GENERATED_CASES[name]
    for seed in SEEDS:
        turbo = _job_scenario(_payload("turbo", case, seed))
        for shards in SHARD_COUNTS:
            sharded = _job_scenario(
                _payload("sharded", case, seed, shards=shards)
            )
            _assert_identical(turbo, sharded, shards,
                              f"{name} seed={seed} shards={shards}")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sharded_families_bit_identical_to_turbo(name):
    spec = FAMILIES[name]
    turbo = _job_scenario(spec.run_spec(engine="turbo").payload)
    sharded = _job_scenario(
        spec.run_spec(engine="sharded", shards=2).payload)
    _assert_identical(turbo, sharded, 2, name)


@pytest.mark.parametrize("name", sorted(GENERATED_CASES))
def test_sharded_deterministic_for_fixed_seed_and_shards(name):
    case = GENERATED_CASES[name]
    first = _job_scenario(_payload("sharded", case, 1, shards=2))
    second = _job_scenario(_payload("sharded", case, 1, shards=2))
    assert first == second


def test_shards1_degenerates_to_turbo():
    """The shards=1 contract: identical result AND identical extras
    (minus the engine's own summary key) -- no window overhead leaks
    into any observable."""
    case = GENERATED_CASES["tree7_balancers"]
    turbo = _job_scenario(_payload("turbo", case, 1))
    one = _job_scenario(_payload("sharded", case, 1, shards=1))
    assert one["result"] == turbo["result"]
    assert _extras_without_sharded(one) == _extras_without_sharded(turbo)
    summary = one["extras"]["sharded"]
    assert summary["cross_messages"] == 0
    assert summary["lookahead"] is None  # no cut links


def test_process_driver_bit_identical_to_inline(monkeypatch):
    case = GENERATED_CASES["chain6_hetero"]
    monkeypatch.setenv("REPRO_SHARD_DRIVER", "inline")
    inline = _job_scenario(_payload("sharded", case, 2, shards=2))
    monkeypatch.setenv("REPRO_SHARD_DRIVER", "process")
    process = _job_scenario(_payload("sharded", case, 2, shards=2))
    assert inline == process


def test_fingerprint_path_bit_identical():
    case = GENERATED_CASES["tree7_balancers"]
    turbo = _job_fingerprint(_payload("turbo", case, 1, kind="fingerprint"))
    sharded = _job_fingerprint(
        _payload("sharded", case, 1, shards=2, kind="fingerprint")
    )
    for key in (
        "myshare_trajectory", "call_outcomes", "registries",
        "events", "packets",
    ):
        assert sharded[key] == turbo[key], f"fingerprint {key} diverges"


def test_unsupported_features_raise():
    case = GENERATED_CASES["chain6_hetero"]
    payload = _payload("sharded", case, 1, shards=2)
    payload["config"]["observe"] = "cpu"
    with pytest.raises(UnsupportedCombination, match="observe"):
        _job_scenario(payload)
    payload = _payload("sharded", case, 1, shards=2)
    payload["config"]["control"] = "rate"
    with pytest.raises(UnsupportedCombination, match="overload control"):
        _job_scenario(payload)
    scenario = generated(
        RATE, family="chain", size=6, seed=1,
        config=ScenarioConfig(engine="sharded", shards=2, scale=100.0),
    )
    with pytest.raises(UnsupportedCombination, match="fault"):
        scenario.install_faults(FaultSchedule().crash(1.0, "P1"))


def test_live_runner_rejects_multi_shard_scenario():
    """A live Scenario can't be split in place; ``start()`` points the
    caller at the spec path instead of silently running serially."""
    scenario = generated(
        RATE, family="chain", size=6, seed=1, heterogeneity=0.4,
        policy="servartuka",
        config=ScenarioConfig(engine="sharded", shards=2, scale=100.0),
    )
    with pytest.raises(UnsupportedCombination, match="in place"):
        run_live(scenario, duration=1.0, warmup=0.5)
