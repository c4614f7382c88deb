"""No event allocates a reference cycle, on either rung.

``EventLoop.run_until`` runs every event under a relaxed cyclic-GC
cadence (``repro.sim.events``).  That is only safe while the hot path
leaves nothing for the collector: garbage that only the cyclic
collector can free would pile up between its rare passes.  This
battery runs one cell of every scenario family of the differential
battery, plus faults, ``observe=`` and ``control=`` cells, and counts
what the collector frees while the run executes: it must be zero.

The scenario itself (loop <-> nodes <-> timers) is one big cycle, so it
stays referenced until the count is taken; ``harness.parallel`` collects
it between jobs.
"""

import gc

import pytest

from repro.harness.resilience import ResilienceParams, build_resilience_scenario
from repro.workloads.scenarios import ScenarioConfig, generated, two_series

from tests.engine.test_differential import (
    GENERATED_CASES,
    SCENARIOS,
    TIMERS,
    _config,
    _fingerprint,
    _generated_rate,
)

ENGINES = ("reference", "turbo")
SEED = 1
#: Shorter than the differential battery's window, still past
#: flash_crowd_restart's crash (1.5 s) and restart (1.9 s).
RUN_FOR = 2.0
DRAIN = 0.5


def _cyclic_garbage(scenario, run_for: float = RUN_FOR,
                    drain: float = DRAIN) -> int:
    """Objects the cyclic collector frees while ``scenario`` runs."""
    gc.collect()  # construction leftovers are not the run's
    collected = []

    def tally(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.callbacks.append(tally)
    try:
        _fingerprint(scenario, run_for=run_for, drain=drain)
        gc.collect()  # whatever the relaxed cadence has not reached yet
    finally:
        gc.callbacks.remove(tally)
    return sum(collected)


def _family(name, engine):
    return SCENARIOS[name](_config(engine, SEED))


def _generated(name, engine):
    case = GENERATED_CASES[name]
    rate = _generated_rate(case, SEED, _config(engine, SEED))
    return generated(rate, family=case["family"], size=case["size"],
                     seed=SEED, heterogeneity=case["heterogeneity"],
                     policy="servartuka", config=_config(engine, SEED))


#: Feature cells: two in series past the knee, with one feature on.
FEATURES = {
    "observe_all": {"observe": "all"},
    "control_occupancy": {"control": "occupancy", "reject_queue_delay": 0.0},
}


def _feature(name, engine):
    config = ScenarioConfig(scale=100.0, seed=SEED, monitor_period=0.5,
                            timers=TIMERS, engine=engine, **FEATURES[name])
    return two_series(14_000, policy="servartuka", config=config)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_families_leave_no_cycles(name, engine):
    assert _cyclic_garbage(_family(name, engine)) == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GENERATED_CASES))
def test_generated_topologies_leave_no_cycles(name, engine):
    assert _cyclic_garbage(_generated(name, engine)) == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(FEATURES))
def test_feature_cells_leave_no_cycles(name, engine):
    assert _cyclic_garbage(_feature(name, engine)) == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_faults_leave_no_cycles(engine):
    """Crashes and loss: halted CPUs, cancelled timers, retransmissions."""
    params = ResilienceParams(seed=SEED, scale=50.0, crash_times=(1.7, 3.7),
                              run_for=5.0, drain=3.0, engine=engine)
    scenario = build_resilience_scenario("servartuka", params)
    assert _cyclic_garbage(scenario, params.run_for, params.drain) == 0
