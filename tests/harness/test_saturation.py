"""Tests for load sweeps and saturation search."""

import pytest

from repro.harness.parallel import SpecTemplate, execution
from repro.harness.runner import RunResult
from repro.harness.saturation import (
    SweepPoint,
    SweepResult,
    find_capacity,
    refine_peak,
    staircase,
    sweep_loads,
)
from repro.workloads.scenarios import single_proxy


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


PEAK = 10000.0  # synthetic knee for the adaptive-search unit tests


class TestAdaptiveFindCapacity:
    """Model-guided search semantics against a synthetic goodput curve.

    ``run_scenario_specs`` is stubbed out with a deterministic tent
    curve (throughput == offered up to ``PEAK``, then a
    fluid-model-style linear collapse), so the probe count and the
    probe positions are exact -- no simulation noise.
    """

    def _install_curve(self, monkeypatch, calls):
        def fake_run_specs(specs):
            results = []
            for spec in specs:
                load = spec.payload["kwargs"]["rate"]
                calls.append(load)
                result = RunResult("fake", load, 1.0)
                if load <= PEAK:
                    result.throughput_cps = load
                else:
                    result.throughput_cps = max(0.0, PEAK - 0.8 * (load - PEAK))
                results.append(result)
            return results

        monkeypatch.setattr(
            "repro.harness.saturation.run_scenario_specs", fake_run_specs
        )
        return SpecTemplate("single_proxy", {})

    def test_good_hint_beats_fixed_grid_budget(self, monkeypatch):
        fixed_calls, adaptive_calls = [], []
        template = self._install_curve(monkeypatch, fixed_calls)
        fixed = find_capacity(template, hint=PEAK)
        template = self._install_curve(monkeypatch, adaptive_calls)
        adaptive = find_capacity(template, hint=PEAK, adaptive=True)

        # 6 coarse + 3 refine for the grid; 3 seeds + 2 refine adaptive.
        assert len(fixed_calls) == 9
        assert len(adaptive_calls) == 5
        assert len(adaptive_calls) <= 0.6 * len(fixed_calls)

        spacing = PEAK * 2 * 0.35 / 5
        best_fixed = fixed.points[max(range(len(fixed.points)),
                                      key=lambda i: fixed.points[i].result.throughput_cps)]
        best_adaptive = adaptive.points[max(range(len(adaptive.points)),
                                            key=lambda i: adaptive.points[i].result.throughput_cps)]
        assert abs(best_adaptive.offered_cps - best_fixed.offered_cps) <= spacing + 1e-9
        assert adaptive.max_throughput == pytest.approx(fixed.max_throughput, rel=0.01)

    def test_bad_hint_walks_to_the_peak(self, monkeypatch):
        calls = []
        template = self._install_curve(monkeypatch, calls)
        result = find_capacity(template, hint=6000, adaptive=True)
        spacing = 6000 * 2 * 0.35 / 5
        best = max(result.points, key=lambda p: p.result.throughput_cps)
        # The walk climbed from 6000 all the way to the real knee.
        assert abs(best.offered_cps - PEAK) <= spacing + 1e-9
        # Probes stepped one spacing at a time, never skipping the peak.
        assert max(calls) <= PEAK + 2 * spacing

    def test_adaptive_without_refine_probes_bracket_only(self, monkeypatch):
        calls = []
        template = self._install_curve(monkeypatch, calls)
        find_capacity(template, hint=PEAK, adaptive=True, refine=False)
        spacing = PEAK * 2 * 0.35 / 5
        assert calls == [PEAK - spacing, PEAK, PEAK + spacing]

    def test_seed_bracket_clips_nonpositive_loads(self, monkeypatch):
        calls = []
        template = self._install_curve(monkeypatch, calls)
        # spacing > hint: the low seed would be negative and is dropped.
        find_capacity(template, hint=10, span=2.0, points=3,
                      adaptive=True, refine=False)
        assert all(load > 0 for load in calls)


class TestAdaptiveCapacityBudget:
    """End-to-end sim budget on the figure-5/figure-8 capacity queries.

    The adaptive search seeded with a knee-accurate hint (what the
    fluid/LP model provides) must answer with at most 60% of the fixed
    grid's simulations, landing within one grid spacing of the fixed
    answer.  Executed-simulation counts come from the parallel
    executor's stats, so run-cache hits would show up as free probes.
    """

    @pytest.mark.parametrize("builder,kwargs,hint", [
        ("n_series", {"n": 2, "policy": "servartuka"}, 9800.0),
        ("parallel_fork", {"policy": "servartuka"}, 11000.0),
    ])
    def test_budget_and_answer(self, fast_config, builder, kwargs, hint):
        template = SpecTemplate(builder, fast_config, **kwargs)
        with execution(jobs=1) as context:
            fixed = find_capacity(template, hint=hint,
                                  duration=1.5, warmup=0.5)
            fixed_sims = context.stats.executed
        with execution(jobs=1) as context:
            adaptive = find_capacity(template, hint=hint, adaptive=True,
                                     duration=1.5, warmup=0.5)
            adaptive_sims = context.stats.executed
        assert adaptive_sims <= 0.6 * fixed_sims
        spacing = hint * 2 * 0.35 / 5
        best_fixed = max(fixed.points,
                         key=lambda p: p.result.throughput_cps)
        best_adaptive = max(adaptive.points,
                            key=lambda p: p.result.throughput_cps)
        assert abs(best_adaptive.offered_cps - best_fixed.offered_cps) \
            <= spacing + 1e-9
