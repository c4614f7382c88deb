"""Tests for the measurement runner."""

import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.harness.parallel import _job_scenario, build_scenario, scenario_spec
from repro.harness.runner import (
    RunResult,
    _drive,
    assemble,
    assemble_fingerprint,
    fingerprint_partial,
    myshare_sample,
    run_scenario,
    window_partial,
)
from repro.workloads.scenarios import single_proxy, two_series

from tests.engine.test_sharded_differential import GENERATED_CASES, _payload


class TestMeasurement:
    def test_throughput_tracks_offered_below_saturation(self, fast_config):
        scenario = single_proxy(5000, mode="transaction_stateful",
                                config=fast_config)
        result = run_scenario(scenario, duration=3.0, warmup=1.0)
        assert result.offered_cps == pytest.approx(5000, rel=1e-6)
        assert result.throughput_cps == pytest.approx(5000, rel=0.15)
        assert result.goodput_ratio == pytest.approx(1.0, abs=0.15)

    def test_utilization_scales_with_load(self, fast_config):
        low = run_scenario(
            single_proxy(3000, mode="transaction_stateful", config=fast_config),
            duration=3.0, warmup=1.0,
        )
        high = run_scenario(
            single_proxy(8000, mode="transaction_stateful", config=fast_config),
            duration=3.0, warmup=1.0,
        )
        assert high.proxy_utilization["P1"] > 2.0 * low.proxy_utilization["P1"]
        # Linear through the origin (paper Figure 4): utilization at
        # ~29% of T_SF should be ~0.29.
        assert low.proxy_utilization["P1"] == pytest.approx(3000 / 10360, rel=0.2)

    def test_trying_ratio_one_when_stateful(self, fast_config):
        scenario = single_proxy(4000, mode="transaction_stateful",
                                config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.trying_ratio == pytest.approx(1.0, abs=0.02)

    def test_trying_ratio_zero_when_stateless(self, fast_config):
        scenario = single_proxy(4000, mode="stateless", config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.trying_ratio == 0.0

    def test_response_time_stats_populated(self, fast_config):
        scenario = two_series(4000, config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.invite_rt["count"] > 0
        assert 0 < result.invite_rt["mean"] < 0.05
        assert result.invite_rt["p95"] >= result.invite_rt["p50"]
        assert result.bye_rt["count"] > 0

    def test_per_proxy_state_split_rates(self, fast_config):
        scenario = two_series(4000, policy="static-one", config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        # Exit node stateful, front stateless.
        assert result.proxy_stateful_cps["P2"] == pytest.approx(4000, rel=0.25)
        assert result.proxy_stateful_cps["P1"] == 0.0
        assert result.proxy_stateless_cps["P1"] == pytest.approx(4000, rel=0.25)

    def test_overload_flags_for_servartuka(self, fast_config):
        scenario = two_series(3000, policy="servartuka", config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.proxy_overloaded == {"P1": False, "P2": False}

    def test_as_dict_round_trip(self, fast_config):
        scenario = two_series(3000, config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        data = result.as_dict()
        assert data["scenario"] == "2_series"
        assert data["offered_cps"] == pytest.approx(3000)

    def test_warmup_excluded_from_window(self, fast_config):
        """Counters accumulated during warmup must not inflate rates."""
        scenario = single_proxy(4000, mode="transaction_stateful",
                                config=fast_config)
        result = run_scenario(scenario, duration=2.0, warmup=2.0)
        assert result.throughput_cps < 4000 * 1.2

    def test_validation(self, fast_config):
        scenario = single_proxy(100, config=fast_config)
        with pytest.raises(ValueError):
            run_scenario(scenario, duration=0)
        with pytest.raises(ValueError):
            run_scenario(scenario, duration=1, warmup=-1)

    def test_goodput_ratio_zero_offered(self):
        result = RunResult("x", 0.0, 1.0)
        assert result.goodput_ratio == 0.0


@functools.lru_cache(maxsize=None)
def _finished_run():
    """chain6_hetero driven serially, once: the scenario after its
    drain and the two readings that bracket its window."""
    payload = _payload("turbo", GENERATED_CASES["chain6_hetero"], 1)
    scenario = build_scenario(payload)
    before, after = _drive(
        scenario, payload["duration"], payload["warmup"], payload["drain"])
    return scenario, before, after


class TestAssembleIsSplitInvariant:
    """Sharded == turbo for everything after the event loops stop: any
    split of one finished run's nodes among owners assembles to what
    the whole run assembles to.  No shard runtime is involved, so a
    failure here is a merge bug, never a window bug."""

    @staticmethod
    def _split(assignment, reverse, partial_of, loop_totals):
        """Partials of the owners in ``assignment`` (node -> owner id).
        One loop ran, so its totals go to one partial, not to each."""
        owners = sorted(set(assignment.values()))
        partials = [
            partial_of({n for n, o in assignment.items() if o == owner})
            for owner in owners
        ]
        for partial in partials[1:]:
            partial.update(loop_totals)
        return partials[::-1] if reverse else partials

    @given(data=st.data(), reverse=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_result_and_fingerprint(self, data, reverse):
        scenario, before, after = _finished_run()
        names = scenario.network.node_names()
        assignment = dict(zip(names, data.draw(st.lists(
            st.integers(0, 3), min_size=len(names), max_size=len(names)))))

        whole = assemble([window_partial(scenario, before, after)])
        parts = self._split(
            assignment, reverse,
            lambda owned: window_partial(scenario, before, after, owned),
            {"events": 0})
        assert assemble(parts) == whole
        assert whole["result"]["throughput_cps"] > 0

        whole = assemble_fingerprint(
            [fingerprint_partial(scenario, [myshare_sample(scenario)])])
        parts = self._split(
            assignment, reverse,
            lambda owned: fingerprint_partial(
                scenario, [myshare_sample(scenario, owned)], owned),
            {"events": 0, "packets": [0, 0]})
        assert assemble_fingerprint(parts) == whole
        assert whole["myshare_trajectory"][0]


class TestOnePath:
    """A live run, a job and the API facade are one measurement."""

    KWARGS = dict(n=2, policy="servartuka")
    WINDOW = dict(duration=1.5, warmup=0.5, drain=0.25)

    def test_live_job_and_api_agree(self, fast_config):
        payload = scenario_spec(
            "n_series", rate=4000, config=fast_config,
            **self.WINDOW, **self.KWARGS).payload
        live = run_scenario(build_scenario(payload), **self.WINDOW)
        facade = api.run_scenario(
            "n_series", rate=4000, config=fast_config,
            **self.WINDOW, **self.KWARGS)
        assert live.to_payload() == _job_scenario(payload)["result"]
        assert live.to_payload() == facade.to_payload()
        assert live.throughput_cps > 0

    def test_faults_branch_attaches_what_the_job_branch_does(
            self, fast_config, monkeypatch):
        outputs = []
        from_job = RunResult.from_job.__func__

        def spy(cls, output):
            outputs.append(output)
            return from_job(cls, output)

        monkeypatch.setattr(RunResult, "from_job", classmethod(spy))
        run = functools.partial(
            api.run_scenario, "n_series", rate=9000, config=fast_config,
            observe="cpu", control="occupancy", policy="static", n=2,
            **self.WINDOW)
        job = run()
        # An empty schedule injects nothing: same run, other branch.
        live = run(faults=api.FaultSchedule())
        assert len(outputs) == 2
        assert live.to_payload() == job.to_payload()
        for name in ("obs", "control"):
            assert getattr(job, name)
            # The job branch's extras went through the executor's JSON
            # normalization; the live branch's are the raw snapshots.
            normalized = json.loads(json.dumps(getattr(live, name)))
            assert normalized == getattr(job, name)
        for name in ("hybrid", "sharded"):
            assert getattr(job, name) is None
            assert getattr(live, name) is None
