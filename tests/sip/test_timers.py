"""Tests for RFC 3261 timer derivation."""

import pytest

from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy


class TestDefaults:
    def test_rfc_values(self):
        t = DEFAULT_TIMERS
        assert t.t1 == 0.5
        assert t.t2 == 4.0
        assert t.t4 == 5.0
        assert t.timer_a == 0.5
        assert t.timer_b == 32.0
        assert t.timer_d == 32.0
        assert t.timer_e == 0.5
        assert t.timer_f == 32.0
        assert t.timer_h == 32.0
        assert t.timer_k == 5.0


class TestScaling:
    def test_derived_from_t1(self):
        t = TimerPolicy(t1=0.1, t2=0.4, t4=0.5)
        assert t.timer_b == pytest.approx(6.4)
        assert t.timer_f == pytest.approx(6.4)
        assert t.timer_d == pytest.approx(6.4)  # t1 < 0.5 branch

    def test_validation(self):
        with pytest.raises(ValueError):
            TimerPolicy(t1=0)
        with pytest.raises(ValueError):
            TimerPolicy(t1=1.0, t2=0.5)
        with pytest.raises(ValueError):
            TimerPolicy(t4=0)


class TestBackoff:
    def test_invite_doubles_unbounded(self):
        t = DEFAULT_TIMERS
        interval = t.timer_a
        expected = [1.0, 2.0, 4.0, 8.0]
        for value in expected:
            interval = t.next_retransmit_interval(interval, invite=True)
            assert interval == pytest.approx(value)

    def test_non_invite_caps_at_t2(self):
        t = DEFAULT_TIMERS
        interval = t.timer_e
        seen = []
        for _ in range(6):
            interval = t.next_retransmit_interval(interval, invite=False)
            seen.append(interval)
        assert seen == [1.0, 2.0, 4.0, 4.0, 4.0, 4.0]
