"""Differential battery: serial vs parallel vs warm-cache execution.

The parallel executor's contract mirrors the engine contract next door
(``test_differential.py``): fanning runs across worker processes, or
serving them from the on-disk run cache, may only change wall-clock
time -- never a single observable.  This battery executes the full
``fingerprint`` job (per-node metric registries, call outcomes, the
mid-run myshare trajectory, packet/event accounting) for three scenario
families across three seeds (and a B2BUA chain at one), four ways:

- serial: ``jobs=1``, no cache (the inline path),
- cold fork: ``jobs=4`` forked workers filling a fresh cache, forked
  from a dirty parent: it has just run a ``reference``-rung scenario,
  so the workers inherit the reference rung switched on and whatever
  that run left in the module-level memo tables,
- cold spawn: ``jobs=4`` spawned workers, which inherit nothing,
- warm: ``jobs=4`` again over the cache the fork pass filled (must be
  100% hits, zero executions).

All four must be byte-identical, part by part.
"""

import pytest

from repro.harness.parallel import ExecutionContext, RunSpec, run_specs
from repro.sip import message
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig

SEEDS = (1, 2, 3)
RUN_FOR = 2.5
DRAIN = 1.0

# Same aggressive-timer regime as the engine battery: each run is well
# under a second yet exercises retransmissions and state planning.
TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)

# Three families spanning the topology space: a chain (state delegated
# upstream), the mixed internal/external flows, and the parallel fork.
FAMILIES = {
    "two_series": ("n_series", {"n": 2, "policy": "servartuka",
                                "rate": 11_000.0}),
    "internal_external": ("internal_external",
                          {"external_fraction": 0.6,
                           "policy": "servartuka", "rate": 11_000.0}),
    "parallel_fork": ("parallel_fork", {"policy": "servartuka",
                                        "rate": 12_000.0}),
    # A node that is neither proxy nor endpoint: its registry must
    # travel through the pool and the cache like the others.
    "b2bua_chain": ("b2bua_chain", {"policy": "servartuka",
                                    "rate": 9_000.0}),
}
#: Families run at fewer than all SEEDS.
FAMILY_SEEDS = {"b2bua_chain": SEEDS[:1]}

FINGERPRINT_PARTS = (
    "registries", "call_outcomes", "myshare_trajectory", "events", "packets",
)


def _spec(family, seed, **config):
    builder, kwargs = FAMILIES[family]
    config = ScenarioConfig(
        scale=100.0, seed=seed, monitor_period=0.5, timers=TIMERS, **config
    )
    return RunSpec(
        kind="fingerprint",
        payload={
            "builder": builder,
            "kwargs": dict(kwargs),
            "config": config.to_payload(),
            "run_for": RUN_FOR,
            "slices": 6,
            "drain": DRAIN,
        },
        label=f"{family}/seed={seed}",
    )


def _specs():
    return [
        _spec(family, seed)
        for family in sorted(FAMILIES)
        for seed in FAMILY_SEEDS.get(family, SEEDS)
    ]


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """Run the whole battery once; individual tests assert over it."""
    specs = _specs()
    cache_dir = str(tmp_path_factory.mktemp("run-cache"))

    serial_ctx = ExecutionContext(jobs=1)
    serial = run_specs(specs, context=serial_ctx)

    # Dirty the parent the forked workers are copied from.
    run_specs([_spec("two_series", SEEDS[0], engine="reference")],
              context=ExecutionContext(jobs=1))
    assert not message._TURBO

    with ExecutionContext(jobs=4, use_cache=True, cache_dir=cache_dir,
                          start_method="fork") as cold_ctx:
        cold = run_specs(specs, context=cold_ctx)

    with ExecutionContext(jobs=4, start_method="spawn") as spawn_ctx:
        spawn = run_specs(specs, context=spawn_ctx)

    with ExecutionContext(jobs=4, use_cache=True,
                          cache_dir=cache_dir) as warm_ctx:
        warm = run_specs(specs, context=warm_ctx)

    return {
        "specs": specs,
        "serial": serial,
        "cold": cold,
        "spawn": spawn,
        "warm": warm,
        "cold_ctx": cold_ctx,
        "spawn_ctx": spawn_ctx,
        "warm_ctx": warm_ctx,
    }


@pytest.mark.parametrize("mode", ["cold", "spawn", "warm"])
@pytest.mark.parametrize("part", FINGERPRINT_PARTS)
def test_part_bit_identical(battery, mode, part):
    for spec, serial, other in zip(
        battery["specs"], battery["serial"], battery[mode]
    ):
        assert other[part] == serial[part], (
            f"{spec.label}: {mode} {part} diverges from serial"
        )


def test_full_payloads_identical(battery):
    assert battery["cold"] == battery["serial"]
    assert battery["spawn"] == battery["serial"]
    assert battery["warm"] == battery["serial"]


def test_cold_executed_everything(battery):
    for context in (battery["cold_ctx"], battery["spawn_ctx"]):
        assert context.stats.executed == len(battery["specs"])
        assert context.stats.cache_hits == 0


def test_warm_pass_is_pure_cache(battery):
    stats = battery["warm_ctx"].stats
    assert stats.executed == 0
    assert stats.cache_hits == len(battery["specs"])
    assert stats.hit_rate() == 1.0


def test_battery_not_degenerate(battery):
    """Guard: the fingerprints must contain real activity to compare."""
    for payload in battery["serial"]:
        assert payload["events"] > 0
        assert payload["registries"]
        uas_counts = payload["call_outcomes"]["uas"]
        assert sum(done for _received, done in uas_counts.values()) > 0


def test_b2bua_registry_is_fingerprinted(battery):
    """The fingerprint sees every node kind, not only proxies, UACs
    and UASes: a B2BUA's counters are part of what must not change."""
    (payload,) = [
        payload
        for spec, payload in zip(battery["specs"], battery["serial"])
        if spec.label.startswith("b2bua_chain/")
    ]
    b2b = {
        name: snapshot for name, snapshot in payload["registries"].items()
        if name.startswith("b2b:")
    }
    assert b2b
    assert any(sum(snap["counters"].values()) > 0 for snap in b2b.values())
