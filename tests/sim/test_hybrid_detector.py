"""Property battery for the hybrid engine's steady-state detector.

The two guarantees the hybrid contract rests on:

- *liveness*: on constant-rate traffic the detector declares quiescence
  within its window (one baseline sample + K flat samples), for any
  rate and window -- otherwise hybrid would silently degrade to turbo;
- *safety*: it never declares quiescence across a disturbance, a load
  ramp, or a backlog build-up -- and the structural layer
  (:class:`TransientSchedule`) refuses jumps near *scheduled*
  transients regardless of what the statistics say.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.sim.hybrid import (
    HybridConfig,
    Sample,
    SteadyStateDetector,
    TransientSchedule,
)


def constant_samples(rng, rate, period, count, occupancy=0.5):
    """Synthetic per-period samples of a quiescent system."""
    for _ in range(count):
        arrivals = rng.poisson(rate * period)
        yield Sample(
            arrivals=arrivals,
            completions=rng.poisson(rate * period),
            occupancy={"p1": occupancy + rng.normal(0.0, 0.01)},
            queue_delay=abs(rng.normal(0.0, 0.002)),
            disturbances=0,
        )


class TestLiveness:
    @settings(max_examples=30, deadline=None)
    @given(
        rate=st.floats(min_value=10.0, max_value=500.0),
        window=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_constant_rate_fires_within_window(self, rate, window, seed):
        config = HybridConfig(window=window)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(seed)
        # First sample establishes the EMA baseline, then `window`
        # consecutive flat samples must trip the detector.
        for sample in constant_samples(rng, rate, 0.5, window + 1):
            detector.observe(sample)
        assert detector.steady

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_recovers_after_reset(self, seed):
        config = HybridConfig(window=4)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(seed)
        for sample in constant_samples(rng, 80.0, 0.5, 5):
            detector.observe(sample)
        assert detector.steady
        detector.reset()
        assert not detector.steady
        for sample in constant_samples(rng, 80.0, 0.5, 5):
            detector.observe(sample)
        assert detector.steady


class TestSafety:
    @settings(max_examples=30, deadline=None)
    @given(
        rate=st.floats(min_value=20.0, max_value=200.0),
        factor=st.floats(min_value=2.0, max_value=10.0),
        up=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_rate_ramp_breaks_the_streak(self, rate, factor, up, seed):
        """A statistically visible rate edge restarts the flat streak.

        Edges smaller than the sqrt-scaled Poisson band (possible at
        very low per-period counts) are deliberately NOT a statistical
        responsibility: scheduled ramps are covered structurally by
        :class:`TransientSchedule`, which blocks jumps around them no
        matter what the detector says."""
        period = 0.5
        config = HybridConfig(window=4)
        new_rate = rate * factor if up else rate / factor
        mean = rate * period
        band = config.band_sigma * np.sqrt(max(mean, 1.0)) + config.band_floor
        # Keep 6 sigma of the new rate's own noise clear of the band
        # edge too, so the property is deterministic, not flaky.
        gap = abs(new_rate * period - mean)
        assume(gap > band + 6.0 * np.sqrt(new_rate * period))
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(seed)
        for sample in constant_samples(rng, rate, period, 6):
            detector.observe(sample)
        assert detector.steady
        edge = next(iter(constant_samples(rng, new_rate, period, 1)))
        detector.observe(edge)
        assert detector.streak == 0
        assert not detector.steady

    @settings(max_examples=30, deadline=None)
    @given(
        where=st.integers(min_value=0, max_value=5),
        magnitude=st.integers(min_value=1, max_value=1000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_never_steady_across_disturbances(self, where, magnitude, seed):
        """Any sample carrying disturbances (failures, rejects, drops,
        retransmits) zeroes the streak no matter how flat the rest is."""
        config = HybridConfig(window=6)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(seed)
        samples = list(constant_samples(rng, 100.0, 0.5, 6))
        samples[where].disturbances = magnitude
        for sample in samples:
            detector.observe(sample)
        assert not detector.steady

    @settings(max_examples=20, deadline=None)
    @given(
        gap=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sparse_steady_loss_never_fires(self, gap, seed):
        """A sparse but *steady* loss process (one disturbance every
        ``gap`` samples) must block quiescence even when a whole window
        happens to be clean: the slow disturbance EMA remembers the
        trickle across lucky windows."""
        config = HybridConfig(window=4)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(seed)
        samples = list(constant_samples(rng, 100.0, 0.5, 8 * (gap + 1)))
        for index, sample in enumerate(samples):
            if index % (gap + 1) == 0:
                sample.disturbances = 2
            detector.observe(sample)
            assert not detector.steady

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_backlog_buildup_blocks(self, seed):
        """Queue delay above the horizon means the node is falling
        behind -- not steady even if arrivals look flat."""
        config = HybridConfig(window=3, max_queue_delay=0.25)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(seed)
        for sample in constant_samples(rng, 100.0, 0.5, 8):
            sample.queue_delay = 0.4
            detector.observe(sample)
        assert not detector.steady

    def test_occupancy_shift_blocks(self):
        config = HybridConfig(window=3, occupancy_band=0.1)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(7)
        for sample in constant_samples(rng, 100.0, 0.5, 5, occupancy=0.3):
            detector.observe(sample)
        assert detector.steady
        # CPU occupancy moves by 3x the band (e.g. a neighbour started
        # shedding state onto this node): streak restarts.
        jump = next(iter(constant_samples(rng, 100.0, 0.5, 1, occupancy=0.65)))
        detector.observe(jump)
        assert detector.streak == 0

    def test_topology_change_resets_baseline(self):
        config = HybridConfig(window=3)
        detector = SteadyStateDetector(config)
        rng = np.random.default_rng(11)
        for sample in constant_samples(rng, 100.0, 0.5, 5):
            detector.observe(sample)
        assert detector.steady
        changed = Sample(
            arrivals=50, completions=50, occupancy={"p1": 0.5, "p2": 0.1},
            queue_delay=0.0, disturbances=0,
        )
        detector.observe(changed)
        assert detector.streak == 0


class TestTransientSchedule:
    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            max_size=10,
        ),
        t0=st.floats(min_value=-10.0, max_value=110.0),
        width=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_blocks_iff_a_transient_is_inside(self, times, t0, width):
        schedule = TransientSchedule(times)
        t1 = t0 + width
        expected = any(t0 - 1e-9 <= t <= t1 for t in times)
        assert schedule.blocks(t0, t1) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            max_size=10,
        ),
        t=st.floats(min_value=-10.0, max_value=110.0),
    )
    def test_next_after_is_the_earliest_strictly_later(self, times, t):
        schedule = TransientSchedule(times)
        later = [x for x in times if x > t]
        assert schedule.next_after(t) == (min(later) if later else None)

    def test_incremental_add_keeps_order(self):
        schedule = TransientSchedule([5.0])
        schedule.add(2.0)
        schedule.extend([9.0, 3.0])
        assert schedule.next_after(0.0) == 2.0
        assert schedule.next_after(4.0) == 5.0
        assert len(schedule) == 4


class TestConfig:
    def test_payload_roundtrip(self):
        config = HybridConfig(window=5, guard=2.0, sample_period=0.1)
        clone = HybridConfig.from_payload(config.to_payload())
        assert clone.to_payload() == config.to_payload()

    def test_coerce(self):
        assert HybridConfig.coerce(None) is None
        config = HybridConfig()
        assert HybridConfig.coerce(config) is config
        assert isinstance(HybridConfig.coerce({"window": 3}), HybridConfig)
        with pytest.raises(TypeError):
            HybridConfig.coerce("turbo")

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(window=1)
        with pytest.raises(ValueError):
            HybridConfig(guard=-1.0)
        with pytest.raises(ValueError):
            HybridConfig(min_jump=0.0)
