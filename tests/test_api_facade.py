"""Tests for the stable ``repro.api`` facade.

The facade's import surface is pinned by ``tests/api_surface.txt``;
changing it is an API-stability event that must show up as a diff of
that file (this test runs in every cell of the CI ``tests`` matrix).
"""

import pathlib

import pytest

import repro.api as api
from repro.harness.runner import RunResult
from repro.harness.saturation import SweepResult
from repro.workloads.scenarios import Scenario

SURFACE_FILE = pathlib.Path(__file__).parent / "api_surface.txt"


class TestSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_no_private_leakage(self):
        assert not [name for name in api.__all__ if name.startswith("_")]

    def test_surface_matches_pinned_file(self):
        pinned = SURFACE_FILE.read_text().split()
        assert sorted(api.__all__) == pinned, (
            "repro.api surface changed; update tests/api_surface.txt "
            "deliberately if this is intentional"
        )

    def test_topologies_enumerates_builders(self):
        assert set(api.TOPOLOGIES) == {
            "single_proxy", "n_series", "internal_external", "parallel_fork",
            "generated", "register_churn", "b2bua_chain", "flash_crowd",
            "heavy_tail",
        }


class TestTopologyOracle:
    def test_generate_topology_returns_generated(self):
        gen = api.generate_topology("chain", size=4, seed=2)
        assert isinstance(gen, api.GeneratedTopology)
        assert gen.n_proxies == 4

    def test_solve_topology_fixed_routing(self):
        gen = api.generate_topology("tree", size=7, seed=2)
        solution = api.solve_topology(gen)
        assert isinstance(solution, api.LPSolution)
        solution.verify()
        assert solution.throughput > 0

    def test_solve_topology_free_routing_upper_bounds_fixed(self):
        gen = api.generate_topology("mesh", size=12, seed=2)
        fixed = api.solve_topology(gen)
        free = api.solve_topology(gen, free_routing=True)
        assert free.throughput >= fixed.throughput - 1e-6

    def test_generate_topology_keyword_only(self):
        with pytest.raises(TypeError):
            api.generate_topology("chain", 4)


class TestKeywordOnly:
    def test_run_scenario_rejects_positional_rate(self):
        with pytest.raises(TypeError):
            api.run_scenario("single_proxy", 3000)

    def test_sweep_rejects_positional_loads(self):
        with pytest.raises(TypeError):
            api.sweep("single_proxy", [3000])

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            api.run_scenario("ring", rate=100)
        with pytest.raises(ValueError):
            api.sweep("ring", loads=[100])

    def test_unknown_quality_rejected(self):
        with pytest.raises(ValueError):
            api.run_experiment("lp", quality="turbo")


class TestRunScenario:
    def test_returns_result_with_obs_none_by_default(self):
        result = api.run_scenario(
            "single_proxy", rate=2000, mode="stateless", scale=50.0,
            duration=2.0, warmup=1.0, cache=False,
        )
        assert isinstance(result, RunResult)
        assert result.obs is None
        assert result.control is None
        assert result.throughput_cps > 1000

    def test_control_attaches_snapshot(self):
        result = api.run_scenario(
            "single_proxy", rate=2000, mode="stateless", scale=50.0,
            duration=2.0, warmup=1.0, cache=False, control="occupancy",
        )
        assert result.control is not None
        proxy = result.control["proxies"]["P1"]
        assert proxy["policy"] == "occupancy"
        assert proxy["decisions"]
        assert {"seen", "admitted", "rejected"} <= set(proxy["stats"])

    def test_observe_attaches_snapshot(self):
        result = api.run_scenario(
            "single_proxy", rate=2000, mode="transaction_stateful",
            scale=50.0, duration=2.0, warmup=1.0, cache=False,
            observe="cpu",
        )
        assert result.obs is not None
        assert "P1" in result.obs["profiles"]
        assert result.obs["profiles"]["P1"]["jobs"] > 0

    def test_observe_does_not_change_metrics(self):
        kwargs = dict(rate=2000, mode="stateless", scale=50.0, seed=9,
                      duration=2.0, warmup=1.0, cache=False)
        plain = api.run_scenario("single_proxy", **kwargs)
        observed = api.run_scenario("single_proxy", observe="all", **kwargs)
        assert plain.to_payload() == observed.to_payload()

    def test_faults_run_inline(self):
        schedule = api.FaultSchedule().crash(1.5, "P1", downtime=0.5)
        result = api.run_scenario(
            "single_proxy", rate=1000, mode="stateless", scale=50.0,
            duration=2.0, warmup=1.0, faults=schedule,
        )
        assert isinstance(result, RunResult)

    def test_config_overrides_compose(self):
        config = api.ScenarioConfig(scale=50.0, seed=1)
        result = api.run_scenario(
            "single_proxy", rate=1500, mode="stateless", config=config,
            seed=4, engine="reference", duration=2.0, warmup=1.0, cache=False,
        )
        assert isinstance(result, RunResult)


class TestSweepAndCapacity:
    def test_sweep_returns_sweep_result(self):
        sweep = api.sweep(
            "single_proxy", loads=[1500, 2500], mode="stateless",
            scale=50.0, duration=1.5, warmup=0.5, cache=False,
        )
        assert isinstance(sweep, SweepResult)
        assert len(sweep) == 2

    def test_cache_round_trip_identical(self, tmp_path):
        kwargs = dict(loads=[1800], mode="stateless", scale=50.0,
                      duration=1.5, warmup=0.5, cache=True,
                      cache_dir=str(tmp_path))
        cold = api.sweep("single_proxy", **kwargs)
        warm = api.sweep("single_proxy", **kwargs)
        assert (cold.points[0].result.to_payload()
                == warm.points[0].result.to_payload())

    def test_find_capacity(self):
        sweep = api.find_capacity(
            "single_proxy", hint=4000, mode="stateless", scale=50.0,
            duration=1.0, warmup=0.5, points=2, refine=False, cache=False,
        )
        assert isinstance(sweep, SweepResult)
        assert sweep.max_throughput > 0

    def test_find_capacity_seeds_from_the_lp_bound(self):
        kwargs = dict(n=2, scale=50.0)
        bound = api.solve_topology(
            api.make_scenario("n_series", rate=1.0, **kwargs).topology
        ).throughput
        sweep = api.find_capacity(
            "n_series", duration=1.0, warmup=0.5, points=2, refine=False,
            cache=False, **kwargs,
        )
        assert [point.offered_cps for point in sweep] == pytest.approx(
            [0.65 * bound, 1.35 * bound])
        assert sweep.max_throughput > 0


class TestExperiments:
    def test_experiment_listing(self):
        listing = api.experiments()
        assert "fig3-breakdown" in listing
        assert all(isinstance(v, str) for v in listing.values())

    def test_run_experiment_lp(self):
        figure = api.run_experiment("lp")
        assert isinstance(figure, api.FigureData)
        assert figure.comparisons


class TestMakeScenario:
    def test_builds_live_scenario(self):
        scenario = api.make_scenario(
            "n_series", rate=1000, n=2, scale=50.0, observe="cpu",
        )
        assert isinstance(scenario, Scenario)
        assert scenario.observer is not None
        assert scenario.config.observe.cpu

    def test_control_threads_through(self):
        scenario = api.make_scenario(
            "n_series", rate=1000, n=2, scale=50.0, control="occupancy",
        )
        assert scenario.config.control is not None
        assert scenario.config.control.policy == "occupancy"
        for proxy in scenario.proxies.values():
            assert proxy.control is not None
            assert proxy.control.kind == "occupancy"

    def test_control_config_object_accepted(self):
        config = api.ControlConfig("window", window=16)
        scenario = api.make_scenario(
            "single_proxy", rate=500, scale=50.0, control=config,
        )
        assert scenario.config.control.window == 16
