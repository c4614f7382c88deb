"""Tests for the discrete-event loop."""

import gc
import heapq

import pytest
from hypothesis import given, strategies as st

from repro.harness.runner import fingerprint_scenario, run_scenario
from repro.sim.events import EventLoop, collector_off
from repro.sim.timers_wheel import WheelEventLoop
from repro.sip.message import set_engine_mode
from repro.workloads.scenarios import ScenarioConfig, two_series


def _chain(engine="turbo"):
    return two_series(4_000, policy="servartuka", config=ScenarioConfig(
        scale=100.0, seed=1, engine=engine))


def _drive_runner(_monkeypatch):
    run_scenario(_chain("reference"), duration=0.2, warmup=0.1, drain=0.1)


def _drive_fingerprint(_monkeypatch):
    fingerprint_scenario(_chain(), 0.3, slices=2, drain=0.1)


def _drive_resilience(_monkeypatch):
    from repro.harness.parallel import JOBS
    from repro.harness.resilience import ResilienceParams, resilience_config

    params = ResilienceParams(crash_times=(0.7,), run_for=1.0, drain=0.5,
                              config=resilience_config(scale=50.0))
    JOBS["resilience"]({"params": params.to_payload(),
                        "placement": "servartuka"})


def _drive_shards(monkeypatch):
    # The process driver's workers run the same _run_program.
    from repro.harness.parallel import scenario_spec
    from repro.sim.shard import DRIVER_ENV, run_sharded_scenario

    monkeypatch.setenv(DRIVER_ENV, "inline")
    spec = scenario_spec("n_series", 4_000, dict(
        scale=100.0, seed=1, engine="sharded", shards=2),
        duration=0.2, warmup=0.1, n=2, policy="servartuka")
    run_sharded_scenario(dict(spec.payload))


def _drive_trace(_monkeypatch):
    from repro.cli import main

    assert main(["trace", "--topology", "series", "--rate", "100",
                 "--scale", "25", "--calls", "1"]) == 0


#: Every source driver of ``run_until``, on a small run.
_DRIVERS = {
    "runner": _drive_runner,
    "fingerprint": _drive_fingerprint,
    "resilience": _drive_resilience,
    "shards": _drive_shards,
    "trace": _drive_trace,
}


class TestScheduling:
    def test_fires_in_time_order(self, loop):
        fired = []
        loop.schedule(2.0, fired.append, "late")
        loop.schedule(1.0, fired.append, "early")
        loop.run()
        assert fired == ["early", "late"]

    def test_fifo_for_equal_times(self, loop):
        fired = []
        for index in range(5):
            loop.schedule(1.0, fired.append, index)
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self, loop):
        loop.schedule(3.5, lambda: None)
        loop.run()
        assert loop.now == 3.5

    def test_schedule_at_absolute(self, loop):
        loop.schedule(1.0, lambda: None)
        loop.schedule_at(0.5, lambda: None)
        assert loop.run() == 2

    def test_negative_delay_rejected(self, loop):
        with pytest.raises(ValueError):
            loop.schedule(-0.1, lambda: None)

    def test_past_schedule_rejected(self, loop):
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run(self, loop):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.schedule(1.0, chain, n + 1)

        loop.schedule(0.0, chain, 0)
        loop.run()
        assert fired == [0, 1, 2, 3]
        assert loop.now == 3.0


class TestCancellation:
    def test_cancelled_event_skipped(self, loop):
        fired = []
        handle = loop.schedule(1.0, fired.append, "x")
        handle.cancel()
        loop.run()
        assert fired == []

    def test_cancel_is_idempotent(self, loop):
        handle = loop.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert loop.run() == 0

    def test_cancel_releases_references(self, loop):
        big = object()
        handle = loop.schedule(1.0, lambda x: None, big)
        handle.cancel()
        assert handle.args == ()


class TestRunUntil:
    def test_stops_at_deadline(self, loop):
        fired = []
        loop.schedule(1.0, fired.append, 1)
        loop.schedule(2.0, fired.append, 2)
        loop.run_until(1.5)
        assert fired == [1]
        assert loop.now == 1.5

    def test_advances_clock_even_when_idle(self, loop):
        loop.run_until(10.0)
        assert loop.now == 10.0

    def test_boundary_event_included(self, loop):
        fired = []
        loop.schedule(1.0, fired.append, 1)
        loop.run_until(1.0)
        assert fired == [1]

    def test_remaining_events_survive(self, loop):
        fired = []
        loop.schedule(2.0, fired.append, 2)
        loop.run_until(1.0)
        loop.run()
        assert fired == [2]


class TestGcCadence:
    """``run_until`` sets no collector cadence of its own: its events
    run under the caller's thresholds, which it leaves as it found them."""

    CALLER = (1234, 7, 3)

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        saved = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        try:
            yield
        finally:
            gc.set_threshold(*saved)

    @pytest.mark.parametrize("make_loop", [
        EventLoop, lambda: WheelEventLoop(bucket_width=0.5),
    ], ids=["heap", "wheel"])
    def test_events_run_under_the_cadence(self, make_loop):
        loop = make_loop()
        seen = []
        loop.schedule(0.5, lambda: seen.append(gc.get_threshold()))
        loop.schedule(5.0, lambda: seen.append(gc.get_threshold()))
        loop.run_until(10.0)
        assert seen == [self.CALLER, self.CALLER]
        assert gc.get_threshold() == self.CALLER


class TestCollectorOwnership:
    """Whoever drives a run owns the cyclic collector: it is off for the
    whole run and the caller's enabled or disabled state comes back
    afterwards.  The loop itself and the engine switch leave it alone."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled",
                                               "caller-disabled"])
    def caller(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.fixture
    def probe(self, monkeypatch):
        """``gc.isenabled()`` at every ``run_until`` (both loop kinds)."""
        seen = []
        run_until = EventLoop.run_until

        def probed(loop, deadline):
            seen.append(gc.isenabled())
            return run_until(loop, deadline)

        monkeypatch.setattr(EventLoop, "run_until", probed)
        return seen

    def test_helper_restores_the_callers_state(self, caller):
        with collector_off():
            assert not gc.isenabled()
        assert gc.isenabled() is caller

    def test_helper_restores_when_the_block_raises(self, caller):
        with pytest.raises(RuntimeError):
            with collector_off():
                raise RuntimeError("handler failed")
        assert gc.isenabled() is caller

    @pytest.mark.parametrize("make_loop", [
        EventLoop, lambda: WheelEventLoop(bucket_width=0.5),
    ], ids=["heap", "wheel"])
    def test_run_until_leaves_the_collector_alone(self, make_loop, caller):
        thresholds = gc.get_threshold()
        loop = make_loop()
        seen = []
        loop.schedule(0.5, lambda: seen.append(gc.isenabled()))
        loop.run_until(10.0)
        assert seen == [caller]
        assert gc.get_threshold() == thresholds

    def test_run_until_counts_a_handler_that_raises(self, loop, caller):
        def boom():
            raise RuntimeError("handler failed")

        loop.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            loop.run_until(2.0)
        assert gc.isenabled() is caller
        assert loop.events_processed == 1

    @pytest.mark.parametrize("driver", sorted(_DRIVERS))
    def test_every_driver_runs_with_the_collector_off(
            self, driver, caller, probe, monkeypatch):
        _DRIVERS[driver](monkeypatch)
        assert probe and not any(probe), driver
        assert gc.isenabled() is caller

    def test_driver_restores_when_a_handler_raises(self, caller):
        scenario = _chain()

        def boom():
            raise RuntimeError("handler failed")

        scenario.loop.schedule(0.15, boom)
        with pytest.raises(RuntimeError):
            run_scenario(scenario, duration=0.2, warmup=0.1)
        assert gc.isenabled() is caller

    def test_engine_mode_leaves_the_collector_alone(self, caller):
        thresholds = gc.get_threshold()
        for mode in ("turbo", "reference", "turbo"):
            set_engine_mode(mode)
            assert gc.isenabled() is caller, mode
            assert gc.get_threshold() == thresholds, mode


class TestRunLimits:
    def test_max_events(self, loop):
        for _ in range(10):
            loop.schedule(1.0, lambda: None)
        assert loop.run(max_events=4) == 4
        assert loop.pending == 6

    def test_events_processed_counter(self, loop):
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run()
        assert loop.events_processed == 2


class TestOrderingProperty:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_fire_times_nondecreasing(self, delays):
        loop = EventLoop()
        observed = []
        for delay in delays:
            loop.schedule(delay, lambda: observed.append(loop.now))
        loop.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


class TestHeapCompaction:
    def test_compaction_triggers_and_preserves_order(self, monkeypatch):
        monkeypatch.setattr(EventLoop, "heap_compact_floor", 8)
        loop = EventLoop()
        fired = []
        keepers = []
        cancelled = []
        for index in range(40):
            handle = loop.schedule(1.0 + index * 0.01, fired.append, index)
            (keepers if index % 5 == 0 else cancelled).append(handle)
        peak_before = len(loop._heap)
        for handle in cancelled:
            handle.cancel()
        # 32 corpses vs 8 live crosses both the floor and the >50%
        # threshold, so the sweep must already have run; at most a
        # below-threshold remainder of corpses may linger.
        assert loop.heap_compactions >= 1
        assert len(loop._heap) < peak_before
        assert len(loop._heap) <= len(keepers) + loop.heap_compact_floor
        assert heapq.nsmallest(1, loop._heap) == [min(loop._heap)]
        loop.run()
        assert fired == [0, 5, 10, 15, 20, 25, 30, 35]

    def test_peak_heap_size_stays_bounded(self, monkeypatch):
        # Schedule/cancel churn: without compaction the heap would grow
        # to ~n entries; with it, the peak stays near the live count.
        monkeypatch.setattr(EventLoop, "heap_compact_floor", 16)
        loop = EventLoop()
        peak = 0
        live = []
        for index in range(2000):
            handle = loop.schedule(10.0 + index * 1e-4, lambda: None)
            live.append(handle)
            if len(live) > 4:
                live.pop(0).cancel()
            peak = max(peak, len(loop._heap))
        # 1995 cancels happened; the heap must stay O(live + floor).
        assert peak <= 64
        assert loop.heap_compactions > 0

    def test_no_compaction_below_floor(self):
        loop = EventLoop()  # default floor 1024
        handles = [loop.schedule(1.0, lambda: None) for _ in range(100)]
        for handle in handles:
            handle.cancel()
        assert loop.heap_compactions == 0

    def test_events_processed_unchanged_by_compaction(self, monkeypatch):
        # Corpse pops never count as processed events, so compaction
        # (which removes corpses early) cannot change the count either.
        def run(floor):
            monkeypatch.setattr(EventLoop, "heap_compact_floor", floor)
            loop = EventLoop()
            for index in range(200):
                handle = loop.schedule(1.0 + index * 0.01, lambda: None)
                if index % 2:
                    handle.cancel()
            loop.run()
            return loop.events_processed

        assert run(10**9) == run(4)

    def test_wheel_cancel_in_near_window_counts(self, monkeypatch):
        monkeypatch.setattr(WheelEventLoop, "heap_compact_floor", 8)
        loop = WheelEventLoop(bucket_width=0.5)
        fired = []
        # Near-term events go to the heap; churn them.
        handles = [
            loop.schedule(0.01 + i * 1e-4, fired.append, i) for i in range(40)
        ]
        for handle in handles[1:]:
            handle.cancel()
        assert loop.heap_compactions >= 1
        loop.run()
        assert fired == [0]
