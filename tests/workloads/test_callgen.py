"""Tests for load profiles."""

import pytest

from repro.sim.events import EventLoop
from repro.workloads.callgen import LoadProfile, LoadStep, apply_profile


class FakeGenerator:
    def __init__(self, rate):
        self.config = type("Cfg", (), {"rate": rate})()
        self.history = []

    def set_rate(self, rate):
        self.config.rate = rate
        self.history.append(rate)


class TestLoadStep:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadStep(0, 1)
        with pytest.raises(ValueError):
            LoadStep(1, 0)


class TestProfiles:
    def test_constant(self):
        profile = LoadProfile.constant(100, 10)
        assert profile.total_duration == 10
        assert len(profile.steps) == 1

    def test_staircase_matches_paper_sweep(self):
        """Paper: start at 20 cps, increase in steps of 20."""
        profile = LoadProfile.staircase(20, 100, 20, step_duration=5)
        assert [s.rate for s in profile.steps] == [20, 40, 60, 80, 100]
        assert profile.total_duration == 25

    def test_staircase_validation(self):
        with pytest.raises(ValueError):
            LoadProfile.staircase(100, 50, 10, 1)
        with pytest.raises(ValueError):
            LoadProfile.staircase(10, 50, 0, 1)

    def test_ramp_midpoints(self):
        profile = LoadProfile.ramp(0.0001, 100, duration=10, segments=4)
        rates = [s.rate for s in profile.steps]
        assert rates == sorted(rates)
        assert len(rates) == 4
        assert rates[0] < 25 and rates[-1] > 75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadProfile([])

    def test_boundaries(self):
        profile = LoadProfile([LoadStep(10, 2), LoadStep(20, 3)])
        assert profile.boundaries() == [(0.0, 10), (2.0, 20)]

    def test_zero_duration_step_rejected(self):
        # A zero-duration step would put two boundaries at the same
        # instant with an ambiguous rate between them.
        with pytest.raises(ValueError):
            LoadProfile([LoadStep(10, 2), LoadStep(20, 0.0)])

    def test_back_to_back_ramps_compose(self):
        """Concatenated up/down ramps keep strictly increasing boundaries."""
        up = LoadProfile.ramp(10, 100, duration=4, segments=4)
        down = LoadProfile.ramp(100, 10, duration=4, segments=4)
        profile = LoadProfile(list(up.steps) + list(down.steps))
        assert profile.total_duration == pytest.approx(8.0)
        times = [t for t, _ in profile.boundaries()]
        assert times == sorted(times)
        assert len(set(times)) == len(times), "coincident ramp edges"
        rates = [r for _, r in profile.boundaries()]
        assert rates[:4] == sorted(rates[:4])
        assert rates[4:] == sorted(rates[4:], reverse=True)


class TestApplyProfile:
    def test_rates_preserve_shares(self):
        loop = EventLoop()
        big = FakeGenerator(80.0)
        small = FakeGenerator(20.0)
        profile = LoadProfile([LoadStep(1000, 1), LoadStep(500, 1)])
        end = apply_profile(loop, [big, small], profile)
        loop.run()
        assert end == pytest.approx(2.0)
        assert big.history == [pytest.approx(800), pytest.approx(400)]
        assert small.history == [pytest.approx(200), pytest.approx(100)]

    def test_end_time_offsets_from_loop_now(self):
        """apply_profile schedules relative to *now*, not t=0."""
        loop = EventLoop()
        gen = FakeGenerator(50.0)
        loop.run_until(3.0)
        profile = LoadProfile([LoadStep(100, 1.5), LoadStep(200, 2.5)])
        end = apply_profile(loop, [gen], profile)
        assert end == pytest.approx(3.0 + 4.0)
        loop.run_until(end)
        assert gen.history == [pytest.approx(100), pytest.approx(200)]

    def test_requires_generators(self):
        with pytest.raises(ValueError):
            apply_profile(EventLoop(), [], LoadProfile.constant(1, 1))

    def test_requires_positive_base_rates(self):
        with pytest.raises(ValueError):
            apply_profile(
                EventLoop(), [FakeGenerator(0.0)], LoadProfile.constant(1, 1)
            )
