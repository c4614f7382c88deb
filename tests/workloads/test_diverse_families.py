"""Behavioral tests for the workload-diversity scenario families.

The engine differential battery already proves these families are
bit-identical across rungs; here we check they actually *do* what
their names promise: registrations churn and refresh, the B2BUA
bridges two legs, the flash crowd ramps and survives a restart, and
heavy-tailed holds draw long calls with mid-call re-INVITEs.
"""

import pytest

from repro.harness.runner import run_scenario
from repro.workloads.scenarios import (
    ScenarioConfig,
    b2bua_chain,
    flash_crowd,
    heavy_tail,
    register_churn,
)


@pytest.fixture
def config(fast_timers):
    # Default-length SIP timers would outlast these short runs; the
    # fast battery timers keep retransmission paths cheap.
    return ScenarioConfig(
        scale=100.0, seed=3, monitor_period=0.5, timers=fast_timers
    )


class TestRegisterChurn:
    def test_population_registers_and_refreshes(self, config):
        scenario = register_churn(
            4_000, subscribers=1_000, refresh_interval=0.5, config=config
        )
        assert scenario.registrars, "builder must wire a registrar client"
        run_scenario(scenario, duration=3.0, warmup=1.0)
        reg = scenario.registrars[0]
        sent = reg.metrics.counter("registers_sent").value
        confirmed = reg.metrics.counter("registers_confirmed").value
        # 10 sim-subscribers refreshing every 0.5s over ~4s of run.
        assert sent >= 40
        assert confirmed >= 0.95 * sent
        # The registrar proxy processed them as registrations.
        proxy = scenario.proxies["P1"]
        assert proxy.metrics.counter("registrations").value >= confirmed

    def test_bindings_stay_live_under_churn(self, config):
        scenario = register_churn(
            4_000, subscribers=500, refresh_interval=0.5, config=config
        )
        run_scenario(scenario, duration=3.0, warmup=1.0)
        reg = scenario.registrars[0]
        live = sum(
            1 for aor in reg.aors
            if scenario.location.is_registered(aor, "uas1")
        )
        assert live == len(reg.aors), "churned bindings lapsed mid-run"

    def test_digest_storm_authenticates_every_refresh(self, config):
        scenario = register_churn(
            4_000, subscribers=500, refresh_interval=0.5, auth="digest",
            config=config,
        )
        result = run_scenario(scenario, duration=3.0, warmup=1.0)
        reg = scenario.registrars[0]
        assert reg.metrics.counter("registers_confirmed").value > 0
        # Calls still complete while the auth storm runs.
        assert result.throughput_cps > 0

    def test_validation(self, config):
        with pytest.raises(ValueError):
            register_churn(1_000, subscribers=0, config=config)
        with pytest.raises(ValueError):
            register_churn(1_000, auth="md5-sess", config=config)


class TestB2buaChain:
    def test_bridges_both_legs(self, config):
        scenario = b2bua_chain(5_000, config=config)
        assert scenario.b2buas, "builder must wire the B2BUA"
        result = run_scenario(scenario, duration=3.0, warmup=1.0)
        b2b = scenario.b2buas[0]
        received = b2b.metrics.counter("calls_received").value
        bridged = b2b.metrics.counter("b2b_invites_sent").value
        completed = b2b.metrics.counter("calls_completed").value
        assert received > 0
        # Every accepted A-leg re-originates exactly one B-leg.
        assert bridged == received
        assert completed > 0.9 * received
        assert result.throughput_cps > 0

    def test_proxies_route_around_the_b2bua(self, config):
        scenario = b2bua_chain(5_000, config=config)
        # P1 fronts the B2BUA; P2 fronts the callee side.
        assert set(scenario.proxies) == {"P1", "P2"}
        uas = scenario.servers[0]
        run_scenario(scenario, duration=2.0, warmup=1.0)
        assert uas.calls_received > 0


class TestFlashCrowd:
    def test_profile_changes_rate_at_its_edges(self, config):
        scenario = flash_crowd(
            4_000, shape="spike", peak_factor=3.0, period=1.0, config=config
        )
        base = 4_000 / config.scale
        rates = []
        for t in (0.5, 1.1, 1.5):
            scenario.loop.run_until(t)
            rates.append(sum(g.config.rate for g in scenario.generators))
        assert rates == [pytest.approx(base), pytest.approx(3 * base),
                         pytest.approx(base)]

    @pytest.mark.parametrize("shape", ["step", "spike", "diurnal"])
    def test_shapes_run(self, shape, config):
        scenario = flash_crowd(
            4_000, shape=shape, peak_factor=2.0, period=1.0, config=config
        )
        result = run_scenario(scenario, duration=3.0, warmup=0.5)
        assert result.throughput_cps > 0

    def test_restart_avalanche_crashes_and_recovers(self, config):
        scenario = flash_crowd(
            4_000, shape="spike", peak_factor=2.0, period=1.0,
            restart_node="P2", restart_at=1.0, downtime=0.4, config=config,
        )
        assert scenario.faults is not None
        run_scenario(scenario, duration=3.0, warmup=0.5)
        assert scenario.faults.crashes == 1
        assert scenario.faults.restarts == 1
        assert scenario.proxies["P2"].alive, "P2 must be back up"

    def test_validation(self, config):
        with pytest.raises(ValueError):
            flash_crowd(1_000, shape="tsunami", config=config)
        with pytest.raises(ValueError, match="restart_at"):
            flash_crowd(1_000, restart_node="P2", config=config)
        with pytest.raises(ValueError):
            flash_crowd(
                1_000, restart_node="P9", restart_at=1.0, config=config
            )


class TestHeavyTail:
    def test_long_holds_leave_calls_up(self, config):
        scenario = heavy_tail(
            4_000, hold_time=5.0, hold_dist="pareto", hold_alpha=1.8,
            config=config,
        )
        scenario.start()
        scenario.loop.run_until(2.0)
        gen = scenario.generators[0]
        # Mean hold of 5s over a 2s run: nearly every attempted call is
        # still up -- the dialog state the paper's algorithm must hold.
        assert gen.calls_attempted > 0
        assert gen.calls_completed < 0.5 * gen.calls_attempted

    @pytest.mark.parametrize("dist", ["fixed", "lognormal", "pareto"])
    def test_distributions_complete(self, dist, config):
        scenario = heavy_tail(
            4_000, hold_time=0.2, hold_dist=dist, config=config
        )
        result = run_scenario(scenario, duration=3.0, warmup=1.0, drain=2.0)
        assert result.throughput_cps > 0

    def test_reinvites_traverse_the_dialog(self, config):
        scenario = heavy_tail(
            4_000, hold_time=0.5, hold_dist="lognormal", hold_sigma=0.5,
            reinvite_after=0.2, config=config,
        )
        run_scenario(scenario, duration=3.0, warmup=1.0, drain=2.0)
        gen = scenario.generators[0]
        uas = scenario.servers[0]
        confirmed = gen.metrics.counter("reinvites_confirmed").value
        assert confirmed > 0, "no mid-call re-INVITE ever completed"
        assert uas.metrics.counter("reinvites_received").value >= confirmed

    def test_validation(self, config):
        with pytest.raises(ValueError):
            heavy_tail(1_000, hold_dist="zipf", config=config)
