"""No event allocates a reference cycle, on either rung.

Every driver of a run turns the cyclic collector off for the whole run
(``repro.sim.events.collector_off``).  That is only safe while the hot
path leaves nothing for the collector: garbage that only the cyclic
collector can free would pile up until the run ends.  This battery runs
one cell of every scenario family of the differential battery, plus
faults, ``observe=`` and every ``control=`` policy, and counts what the
collector frees for the run: it must be zero.

With the collector off nothing is freed *during* the run, so the tally
also counts the ``gc.collect()`` right after it, which finds whatever
cyclic garbage the run left behind; without that pass the battery would
pass vacuously.  The scenario itself (loop <-> nodes <-> timers) is one
big cycle, so it stays referenced until the count is taken;
``harness.parallel`` collects it between jobs.
"""

import gc

import pytest

from repro.harness.resilience import (
    ResilienceParams,
    build_resilience_scenario,
    resilience_config,
)
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
        gc.collect()  # what the run left: the collector was off for it
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
    **{
        f"control_{policy}": {"control": policy, "reject_queue_delay": 0.0}
        for policy in ("rate", "window", "occupancy", "signal")
    },
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
    params = ResilienceParams(
        crash_times=(1.7, 3.7), run_for=5.0, drain=3.0,
        config=resilience_config(seed=SEED, scale=50.0, engine=engine))
    scenario = build_resilience_scenario("servartuka", params)
    assert _cyclic_garbage(scenario, params.run_for, params.drain) == 0
