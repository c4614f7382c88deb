"""Does the distributed algorithm converge to the centralized optimum?

The whole argument of the paper is that the local Algorithm 1/2 rules
realize the section 4.1 LP.  These tests measure the *runtime's* state
placement and compare it against the analytic predictions: equation
(8)'s per-node stateful level and the LP's per-node split.
"""

import pytest

from repro.core.analysis import optimal_stateful_rate
from repro.core.costmodel import Feature
from repro.harness.runner import run_scenario
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig, two_series

FAST_TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)


def config(**overrides):
    kwargs = dict(
        scale=50.0, seed=29, noise_sigma=0.30,
        monitor_period=0.5, timers=FAST_TIMERS, via_overhead=0.0,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


class TestEquation8Convergence:
    def test_front_node_sheds_to_the_analytic_level(self):
        """At load L > T_SF(P1), P1's measured stateful rate must track
        equation (8): (1 - beta L) / (alpha - beta)."""
        offered = 11000.0
        scenario = two_series(offered, policy="servartuka", config=config())
        result = run_scenario(scenario, duration=8.0, warmup=4.0)

        proxy = scenario.proxies["P1"]
        t_sf, t_sl = proxy.state_thresholds()
        scale = scenario.config.scale
        predicted = optimal_stateful_rate(
            offered / scale, t_sf, t_sl
        ) * scale
        measured = result.proxy_stateful_cps["P1"]
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_exit_node_absorbs_the_remainder(self):
        offered = 11000.0
        scenario = two_series(offered, policy="servartuka", config=config())
        result = run_scenario(scenario, duration=8.0, warmup=4.0)
        total_state = (
            result.proxy_stateful_cps["P1"] + result.proxy_stateful_cps["P2"]
        )
        # All delivered calls are stateful somewhere, exactly once.
        assert total_state == pytest.approx(result.delivered_cps, rel=0.12)

    def test_below_threshold_no_shedding(self):
        offered = 9000.0
        scenario = two_series(offered, policy="servartuka", config=config())
        result = run_scenario(scenario, duration=6.0, warmup=3.0)
        assert result.proxy_stateful_cps["P1"] == pytest.approx(offered, rel=0.1)
        assert result.proxy_stateful_cps["P2"] < offered * 0.05


class TestUtilizationAtOptimum:
    def test_shedding_node_runs_near_full_utilization(self):
        """Equation (8)'s second case plans the node to exactly 100%."""
        offered = 11000.0
        scenario = two_series(offered, policy="servartuka", config=config())
        result = run_scenario(scenario, duration=8.0, warmup=4.0)
        assert result.proxy_utilization["P1"] > 0.9

    def test_capacity_near_lp_bound(self):
        """Offered load at 90% of the LP bound is served nearly in full
        (the last few percent below the bound are lost to service-time
        noise and the retransmission feedback -- the same gap between
        the paper's measured 9,790 and its LP's 11,240)."""
        from repro.api import solve_topology
        from repro.workloads.scenarios import chain_topology

        topology = chain_topology(2, config().make_cost_model())
        bound = solve_topology(topology).throughput
        offered = 0.9 * bound
        scenario = two_series(offered, policy="servartuka", config=config())
        result = run_scenario(scenario, duration=8.0, warmup=4.0)
        assert result.throughput_cps > 0.9 * offered
