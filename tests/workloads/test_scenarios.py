"""Tests for scenario builders (topology shape + short smoke runs)."""

import pytest

from repro.core.servartuka import ServartukaPolicy
from repro.core.static_policy import StaticPolicy
from repro.core.topogen import GeneratedTopology
from repro.harness.runner import run_scenario
from repro.servers.proxy import DELIVER_ACTION
from repro.workloads.scenarios import (
    SINGLE_PROXY_MODES,
    ScenarioConfig,
    internal_external,
    n_series,
    parallel_fork,
    single_proxy,
    two_series,
)
from tests.workloads.test_wiring_golden import CASES


class TestSingleProxy:
    @pytest.mark.parametrize("mode", sorted(SINGLE_PROXY_MODES))
    def test_modes_build(self, mode, fast_config):
        scenario = single_proxy(100, mode=mode, config=fast_config)
        assert list(scenario.proxies) == ["P1"]
        assert len(scenario.generators) == 1
        assert len(scenario.servers) == 1

    def test_no_lookup_routes_directly(self, fast_config):
        scenario = single_proxy(100, mode="no_lookup", config=fast_config)
        assert not scenario.proxies["P1"].route_table.has_deliver()

    def test_lookup_modes_deliver(self, fast_config):
        scenario = single_proxy(100, mode="stateless", config=fast_config)
        assert scenario.proxies["P1"].route_table.has_deliver()

    def test_auth_mode_wires_credentials(self, fast_config):
        scenario = single_proxy(100, mode="authentication", config=fast_config)
        proxy = scenario.proxies["P1"]
        assert proxy.config.auth_enabled
        assert proxy.credentials is not None
        assert scenario.generators[0].config.wants_auth

    def test_unknown_mode_rejected(self, fast_config):
        with pytest.raises(ValueError):
            single_proxy(100, mode="warp", config=fast_config)

    def test_auth_calls_complete(self, fast_config):
        scenario = single_proxy(4000, mode="authentication", config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.throughput_cps == pytest.approx(4000, rel=0.2)
        assert result.failed_calls == 0


class TestSeries:
    def test_chain_routing(self, fast_config):
        scenario = n_series(3, 100, config=fast_config)
        assert list(scenario.proxies) == ["P1", "P2", "P3"]
        assert scenario.proxies["P1"].route_table.action_for("edge.example.net") == "P2"
        assert scenario.proxies["P2"].route_table.action_for("edge.example.net") == "P3"
        assert scenario.proxies["P3"].route_table.action_for(
            "edge.example.net"
        ) == DELIVER_ACTION

    def test_static_all_stateful(self, fast_config):
        scenario = n_series(2, 100, policy="static", config=fast_config)
        for proxy in scenario.proxies.values():
            assert isinstance(proxy.policy, StaticPolicy)
            assert "stateful" in proxy.policy.name

    def test_static_one(self, fast_config):
        scenario = n_series(3, 100, policy="static-one", config=fast_config)
        names = {
            name: proxy.policy.name for name, proxy in scenario.proxies.items()
        }
        assert names["P3"] == "static:transaction_stateful"
        assert names["P1"] == names["P2"] == "static:stateless"

    def test_static_one_custom_node(self, fast_config):
        scenario = n_series(
            3, 100, policy="static-one", static_stateful="P1", config=fast_config
        )
        assert scenario.proxies["P1"].policy.name == "static:transaction_stateful"

    def test_static_one_bad_node(self, fast_config):
        with pytest.raises(ValueError):
            n_series(2, 100, policy="static-one", static_stateful="P9",
                     config=fast_config)

    def test_static_stateful_needs_static_one(self, fast_config):
        with pytest.raises(ValueError, match="static_stateful=.*'static-one'"):
            n_series(2, 100, policy="servartuka", static_stateful="P9",
                     config=fast_config)
        with pytest.raises(ValueError, match="static_stateful=.*'static-one'"):
            internal_external(100, 0.5, policy="static", static_stateful="S2",
                              config=fast_config)

    def test_servartuka_policies(self, fast_config):
        scenario = two_series(100, policy="servartuka", config=fast_config)
        for proxy in scenario.proxies.values():
            assert isinstance(proxy.policy, ServartukaPolicy)

    def test_zero_proxies_rejected(self, fast_config):
        with pytest.raises(ValueError):
            n_series(0, 100, config=fast_config)

    def test_smoke_run_completes_calls(self, fast_config):
        scenario = two_series(6000, policy="servartuka", config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.throughput_cps == pytest.approx(6000, rel=0.2)
        assert result.trying_ratio == pytest.approx(1.0, abs=0.05)


class TestInternalExternal:
    def test_two_flows(self, fast_config):
        scenario = internal_external(100, 0.8, config=fast_config)
        assert len(scenario.generators) == 2
        rates = {g.name: g.config.rate for g in scenario.generators}
        assert rates["uac_ext"] == pytest.approx(rates["uac_int"] * 4, rel=1e-6)

    def test_degenerate_fractions(self, fast_config):
        only_internal = internal_external(100, 0.0, config=fast_config)
        assert [g.name for g in only_internal.generators] == ["uac_int"]
        only_external = internal_external(100, 1.0, config=fast_config)
        assert [g.name for g in only_external.generators] == ["uac_ext"]

    def test_bad_fraction(self, fast_config):
        with pytest.raises(ValueError):
            internal_external(100, -0.1, config=fast_config)

    def test_s1_exits_internal_flow(self, fast_config):
        scenario = internal_external(100, 0.5, config=fast_config)
        s1_routes = scenario.proxies["S1"].route_table
        assert s1_routes.action_for("near.example.net") == DELIVER_ACTION
        assert s1_routes.action_for("far.example.net") == "S2"

    def test_smoke_run(self, fast_config):
        scenario = internal_external(6000, 0.5, policy="servartuka",
                                     config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.throughput_cps == pytest.approx(6000, rel=0.2)


class TestParallelFork:
    def test_static_roles(self, fast_config):
        scenario = parallel_fork(100, policy="static", config=fast_config)
        assert scenario.proxies["F"].policy.name == "static:stateless"
        assert scenario.proxies["U"].policy.name == "static:transaction_stateful"
        assert scenario.proxies["L"].policy.name == "static:transaction_stateful"

    def test_inverted_static(self, fast_config):
        scenario = parallel_fork(
            100, policy="static", static_front_stateful=True, config=fast_config
        )
        assert scenario.proxies["F"].policy.name == "static:transaction_stateful"

    def test_static_one_holds_state_at_the_exits(self, fast_config):
        scenario = parallel_fork(100, policy="static-one", config=fast_config)
        assert scenario.proxies["F"].policy.name == "static:stateless"
        assert scenario.proxies["U"].policy.name == "static:transaction_stateful"
        assert scenario.proxies["L"].policy.name == "static:transaction_stateful"

    def test_front_stateful_needs_static(self, fast_config):
        with pytest.raises(ValueError,
                           match="static_front_stateful=.*'static'"):
            parallel_fork(100, policy="servartuka",
                          static_front_stateful=True, config=fast_config)

    def test_share_split(self, fast_config):
        scenario = parallel_fork(100, upper_share=0.7, config=fast_config)
        rates = {g.name: g.config.rate for g in scenario.generators}
        assert rates["uac_u"] == pytest.approx(rates["uac_l"] * 7 / 3, rel=1e-6)

    def test_bad_share(self, fast_config):
        with pytest.raises(ValueError):
            parallel_fork(100, upper_share=1.0, config=fast_config)

    def test_smoke_run(self, fast_config):
        scenario = parallel_fork(8000, policy="servartuka", config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.throughput_cps == pytest.approx(8000, rel=0.2)


class TestScenarioPlumbing:
    def test_offered_paper_cps_round_trips_scale(self, fast_config):
        scenario = two_series(500, config=fast_config)
        assert scenario.offered_paper_cps == pytest.approx(500)

    def test_set_total_rate_preserves_shares(self, fast_config):
        scenario = internal_external(100, 0.8, config=fast_config)
        scenario.set_total_rate(200)
        rates = {g.name: g.config.rate for g in scenario.generators}
        assert rates["uac_ext"] == pytest.approx(rates["uac_int"] * 4, rel=1e-6)
        assert scenario.offered_paper_cps == pytest.approx(200)

    def test_make_policy_specs(self, fast_config):
        assert isinstance(fast_config.make_policy("servartuka"), ServartukaPolicy)
        with pytest.raises(ValueError):
            fast_config.make_policy("chaotic")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scale=0)


class TestConfigCoerce:
    def test_none_gives_defaults(self):
        config = ScenarioConfig.coerce(None)
        assert isinstance(config, ScenarioConfig)
        assert config.engine == ScenarioConfig().engine

    def test_instance_passes_through(self, fast_config):
        assert ScenarioConfig.coerce(fast_config) is fast_config

    def test_string_is_engine_shorthand(self):
        assert ScenarioConfig.coerce("turbo").engine == "turbo"

    def test_dict_is_partial_payload(self):
        config = ScenarioConfig.coerce({"scale": 75.0, "seed": 11})
        assert config.scale == 75.0
        assert config.seed == 11
        # Unset knobs fill with constructor defaults.
        assert config.engine == ScenarioConfig().engine

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="config must be"):
            ScenarioConfig.coerce(3.14)

    def test_builders_accept_every_coercible_form(self):
        for form in (None, "reference", {"scale": 80.0}):
            scenario = two_series(100, config=form)
            assert scenario.proxies

    def test_builders_take_knobs_through_config_only(self):
        # seed=/engine= belong on ScenarioConfig; on a builder they are,
        # like any unknown keyword, a plain TypeError.
        for kwargs in ({"nonsense": True}, {"seed": 9}, {"engine": "turbo"}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                two_series(100, **kwargs)

    @pytest.mark.parametrize("removed", ["copy", "fast", "hybrid"])
    def test_removed_engines_name_their_replacement(self, removed):
        with pytest.raises(ValueError) as error:
            ScenarioConfig(engine=removed)
        message = str(error.value)
        assert "\n" not in message
        assert message.startswith(f"unknown engine {removed!r}")
        assert f"'{removed}'" in message.split("(", 1)[1]
        assert "'turbo'" in message

    def test_removed_hybrid_knob_is_a_plain_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword.*'hybrid'"):
            ScenarioConfig(hybrid={})
        # The payload a hybrid run recorded before the rung was removed
        # (the turbo payload plus the two keys that rung set).
        recorded = dict(ScenarioConfig(engine="turbo").to_payload(),
                        engine="hybrid", hybrid=None)
        with pytest.raises((TypeError, ValueError)) as error:
            ScenarioConfig.from_payload(recorded)
        assert "\n" not in str(error.value)

    def test_lean_metrics_is_derived_not_settable(self):
        with pytest.raises(TypeError, match="lean_metrics"):
            ScenarioConfig(lean_metrics=False)
        for engine, lean in (("reference", False), ("turbo", True),
                             ("sharded", True)):
            payload = ScenarioConfig(engine=engine).to_payload()
            assert payload["lean_metrics"] is lean
            assert ScenarioConfig.from_payload(payload).engine == engine
        with pytest.raises(ValueError, match="derived from the engine"):
            ScenarioConfig.from_payload(
                {"engine": "turbo", "lean_metrics": False}
            )


@pytest.mark.parametrize("case", list(CASES))
def test_flow_paths_are_the_route_walks(case):
    """Each generator's calls follow its flow's path in the topology."""
    scenario = CASES[case](ScenarioConfig(scale=25.0, seed=3))
    topology = scenario.topology
    if isinstance(topology, GeneratedTopology):
        topology = topology.topology
    shares = topology.normalized_flow_shares()
    walks = []
    for generator in scenario.generators:
        host = generator.config.destinations[0].rsplit("@", 1)[1]
        path = [generator.config.first_hop]
        while True:
            action = scenario.proxies[path[-1]].route_table.action_for(host)
            if action == DELIVER_ACTION:
                break
            path.append(action)
        walks.append(tuple(path))
    assert walks == [flow.path for flow in topology.flows
                     if shares[flow.name] > 0]
