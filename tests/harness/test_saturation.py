"""Tests for load sweeps and saturation search."""

import pytest

from repro.core.lp import FlowPathLP
from repro.core.topogen import generate
from repro.harness.figures import QUICK
from repro.harness.parallel import SpecTemplate
from repro.harness.runner import RunResult, run_scenario
from repro.harness.saturation import (
    SweepPoint,
    SweepResult,
    find_capacity,
    lp_bound,
    refine_peak,
    staircase,
    sweep_loads,
)
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import (
    ScenarioConfig,
    chain_topology,
    mix_topology,
    single_proxy,
)

#: A 51-proxy generated mesh: its LP carries per-flow hop penalties.
MESH = generate("mesh", 51, seed=1)


def fake_point(offered, throughput, goodput=None):
    result = RunResult("fake", offered, 1.0)
    result.throughput_cps = throughput
    return SweepPoint(offered, result)


class TestSweepResult:
    def test_points_sorted_by_offered(self):
        sweep = SweepResult("s", [fake_point(200, 190), fake_point(100, 100)])
        assert [p.offered_cps for p in sweep.points] == [100, 200]

    def test_max_throughput(self):
        sweep = SweepResult("s", [
            fake_point(100, 100), fake_point(200, 180), fake_point(300, 150),
        ])
        assert sweep.max_throughput == 180

    def test_knee_offered(self):
        sweep = SweepResult("s", [
            fake_point(100, 100), fake_point(200, 196), fake_point(300, 150),
        ])
        assert sweep.knee_offered == 200

    def test_series_accessors(self):
        sweep = SweepResult("s", [fake_point(100, 90)])
        assert sweep.throughput_series() == [(100, 90)]
        assert len(sweep) == 1

    def test_empty(self):
        assert SweepResult("s", []).max_throughput == 0.0


class TestStaircase:
    def test_paper_increments(self):
        loads = staircase(20, 100, 20)
        assert loads == [20, 40, 60, 80, 100]

    def test_validation(self):
        with pytest.raises(ValueError):
            staircase(100, 50, 10)
        with pytest.raises(ValueError):
            staircase(10, 50, 0)

    def test_no_float_accumulation_drift(self):
        # Regression: repeated `current += step` drops the final point
        # for non-representable steps (0.07 * 10 accumulates past 0.7).
        loads = staircase(0.07, 0.7, 0.07)
        assert len(loads) == 10
        assert loads[-1] == 0.7
        assert loads == [round(0.07 * i, 6) for i in range(1, 11)]

    def test_long_staircase_stays_on_grid(self):
        loads = staircase(20, 20000, 20)
        assert len(loads) == 1000
        assert loads[0] == 20 and loads[-1] == 20000
        assert all(load == 20 * (i + 1) for i, load in enumerate(loads))


def _stateful_template(fast_config):
    return SpecTemplate("single_proxy", fast_config,
                        mode="transaction_stateful")


class TestSweepLoads:
    def test_runs_each_load_fresh(self, fast_config):
        sweep = sweep_loads(_stateful_template(fast_config), [2000, 4000],
                            duration=1.5, warmup=0.5)
        assert len(sweep) == 2
        # Below saturation throughput tracks offered load.
        assert sweep.points[0].result.throughput_cps == pytest.approx(2000, rel=0.3)
        assert sweep.points[1].result.throughput_cps == pytest.approx(4000, rel=0.3)

    def test_empty_loads_rejected(self, fast_config):
        with pytest.raises(ValueError):
            sweep_loads(_stateful_template(fast_config), [],
                        duration=1, warmup=0)

    def test_closure_source_rejected(self, fast_config):
        def factory(load):
            return single_proxy(load, mode="transaction_stateful",
                                config=fast_config)

        with pytest.raises(TypeError, match="SpecTemplate.*repro.api.sweep"):
            sweep_loads(factory, [2000], duration=1.5, warmup=0.5)
        with pytest.raises(TypeError, match="SpecTemplate"):
            find_capacity(factory, hint=10000)


class TestFindCapacity:
    def test_brackets_the_hint(self, fast_config):
        sweep = find_capacity(_stateful_template(fast_config), hint=10000,
                              duration=1.0, warmup=0.5,
                              points=3, span=0.3, refine=False)
        loads = [point.offered_cps for point in sweep.points]
        assert min(loads) == pytest.approx(7000)
        assert max(loads) == pytest.approx(13000)
        assert len(sweep) == 3

    def test_refinement_adds_points_near_peak(self, fast_config):
        template = _stateful_template(fast_config)
        coarse = find_capacity(template, hint=10000, duration=1.0, warmup=0.5,
                               points=3, refine=False)
        refined = find_capacity(template, hint=10000, duration=1.0, warmup=0.5,
                                points=3, refine=True)
        assert len(refined) > len(coarse)
        assert refined.max_throughput >= coarse.max_throughput - 1e-9

    def test_validation(self, fast_config):
        template = _stateful_template(fast_config)
        with pytest.raises(ValueError):
            find_capacity(template, hint=0)
        with pytest.raises(ValueError):
            find_capacity(template, hint=10, points=1)


class TestRefinePeak:
    def test_short_sweeps_returned_unchanged(self, fast_config):
        sweep = SweepResult("s", [fake_point(100, 90)])
        assert refine_peak(_stateful_template(fast_config), sweep) is sweep

    def test_probes_straddle_peak(self, fast_config):
        coarse = SweepResult("s", [
            fake_point(8000, 7900), fake_point(10000, 9500),
            fake_point(12000, 7000),
        ])
        refined = refine_peak(_stateful_template(fast_config), coarse,
                              duration=1.0, warmup=0.5)
        assert len(refined) == 7
        assert all(8000 <= point.offered_cps <= 12000
                   for point in refined.points)


class TestLpHint:
    """``hint=None`` seeds the search from the scenario's own LP bound.

    ``run_scenario_specs`` is stubbed out, so the probe loads are exact
    -- no simulation runs.
    """

    def _install_stub(self, monkeypatch, calls):
        def fake_run_specs(specs):
            results = []
            for spec in specs:
                load = spec.payload["kwargs"]["rate"]
                calls.append(load)
                result = RunResult("fake", load, 1.0)
                result.throughput_cps = load
                results.append(result)
            return results

        monkeypatch.setattr(
            "repro.harness.saturation.run_scenario_specs", fake_run_specs
        )

    @pytest.mark.parametrize("builder,kwargs,bound", [
        ("n_series", {"n": 2},
         lambda model: FlowPathLP(chain_topology(2, model)).solve()),
        ("internal_external", {"external_fraction": 0.8},
         lambda model: FlowPathLP(mix_topology(0.8, model)).solve()),
        # The hop-penalty path: the generator's own oracle applies them.
        ("generated", MESH.spec(), lambda model: MESH.oracle()),
    ])
    def test_probes_the_loads_of_the_lp_hint(self, monkeypatch, builder,
                                             kwargs, bound):
        config = QUICK.scenario_config()
        template = SpecTemplate(builder, config, **kwargs)
        hint = bound(config.make_cost_model()).throughput
        assert lp_bound(template) == hint
        seeded, explicit = [], []
        self._install_stub(monkeypatch, seeded)
        find_capacity(template)
        self._install_stub(monkeypatch, explicit)
        find_capacity(template, hint=hint)
        assert seeded == explicit and len(seeded) == 9

    def test_hand_wired_builder_needs_a_hint(self):
        template = SpecTemplate("single_proxy", QUICK.scenario_config())
        with pytest.raises(ValueError) as excinfo:
            find_capacity(template)
        assert str(excinfo.value) == (
            "single_proxy has no topology to bound; pass hint="
        )


class TestSingleProxyOverload:
    """A simulated single proxy sheds load past its knee gently.

    A 500 costs about rho = 0.0882 of a served call, so with every
    excess call rejected the goodput at 1.4 x the 10,360 cps knee is
    (10,360 - rho * 14,504) / (1 - rho) = 9,959 cps: a slow linear
    decline, not a cliff.
    """

    @pytest.fixture(scope="class")
    def sweep(self):
        config = ScenarioConfig(
            scale=50.0, seed=3, noise_sigma=0.3,
            timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2),
        )
        points = {}
        for factor in (0.8, 1.1, 1.4):
            scenario = single_proxy(
                10360 * factor, mode="transaction_stateful", config=config,
            )
            points[factor] = run_scenario(scenario, duration=3.0, warmup=1.0)
        return points

    def test_below_knee_full_goodput(self, sweep):
        assert sweep[0.8].goodput_ratio > 0.9

    def test_past_knee_declines_not_cliff(self, sweep):
        measured = sweep[1.4].throughput_cps
        # Within a broad band of the prediction (retransmission noise).
        assert measured > 0.4 * 9959
        assert measured < 1.25 * 10360

    def test_monotone_decline_in_overload(self, sweep):
        assert sweep[1.1].throughput_cps >= sweep[1.4].throughput_cps * 0.95
