"""Tests for the RFC 3261 client transaction and the 2xx AckWait.

The machines are driven by the test's own EventLoop; ``send_fn`` records
wire traffic so retransmission schedules can be asserted precisely.
"""

import pytest

from repro.sim.events import EventLoop
from repro.sim.metrics import MetricsRegistry
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import TimerPolicy
from repro.sip.transaction import AckWait, ClientTransaction, TransactionState

TIMERS = TimerPolicy(t1=0.1, t2=0.4, t4=0.5)


def make_request(method="INVITE"):
    request = SipRequest.build(
        method,
        uri="sip:u@example.com",
        from_addr="sip:caller@example.com",
        to_addr="sip:u@example.com",
        call_id="c1",
        cseq=1 if method == "INVITE" else 2,
        from_tag="ft",
    )
    request.push_via(Via("uac", branch="z9hG4bKtest"))
    return request


class Harness:
    def __init__(self, method="INVITE"):
        self.loop = EventLoop()
        self.sent = []
        self.responses = []
        self.timed_out = False
        self.request = make_request(method)
        self.txn = ClientTransaction(
            self.request,
            self.loop,
            send_fn=self.sent.append,
            on_response=self.responses.append,
            on_timeout=self._on_timeout,
            timers=TIMERS,
        )

    def _on_timeout(self):
        self.timed_out = True

    def respond(self, status, **kwargs):
        self.txn.receive_response(
            SipResponse.for_request(self.request, status, **kwargs)
        )


class TestInviteClient:
    def test_start_sends_request(self):
        h = Harness()
        h.txn.start()
        assert len(h.sent) == 1
        assert h.txn.state == TransactionState.CALLING

    def test_timer_a_doubles(self):
        h = Harness()
        h.txn.start()
        # Retransmits at 0.1, 0.3, 0.7, 1.5 ... (T1 doubling).
        h.loop.run_until(0.05)
        assert len(h.sent) == 1
        h.loop.run_until(0.15)
        assert len(h.sent) == 2
        h.loop.run_until(0.35)
        assert len(h.sent) == 3
        h.loop.run_until(0.75)
        assert len(h.sent) == 4
        assert h.txn.retransmit_count == 3

    def test_provisional_stops_retransmissions(self):
        h = Harness()
        h.txn.start()
        h.respond(180)
        assert h.txn.state == TransactionState.PROCEEDING
        h.loop.run_until(5.0)
        assert len(h.sent) == 1  # no further INVITE retransmits
        assert not h.timed_out

    def test_2xx_terminates_immediately(self):
        h = Harness()
        h.txn.start()
        h.respond(200, to_tag="t")
        assert h.txn.state == TransactionState.TERMINATED
        assert [r.status for r in h.responses] == [200]
        # No ACK from the transaction layer for 2xx (UAC core's job).
        assert len(h.sent) == 1

    def test_non_2xx_final_sends_ack(self):
        h = Harness()
        h.txn.start()
        h.respond(486, to_tag="t")
        assert h.txn.state == TransactionState.COMPLETED
        acks = [m for m in h.sent if m.method == "ACK"]
        assert len(acks) == 1
        assert acks[0].top_via.branch == "z9hG4bKtest"  # same branch

    def test_retransmitted_final_reacked_not_surfaced(self):
        h = Harness()
        h.txn.start()
        h.respond(486, to_tag="t")
        h.respond(486, to_tag="t")
        assert len(h.responses) == 1
        assert len([m for m in h.sent if m.method == "ACK"]) == 2

    def test_timer_b_fires_without_response(self):
        h = Harness()
        h.txn.start()
        h.loop.run_until(64 * TIMERS.t1 + 0.1)
        assert h.timed_out
        assert h.txn.state == TransactionState.TERMINATED

    def test_no_timeout_after_final(self):
        h = Harness()
        h.txn.start()
        h.respond(200)
        h.loop.run_until(20.0)
        assert not h.timed_out

    def test_timer_d_terminates_completed(self):
        h = Harness()
        h.txn.start()
        h.respond(486)
        h.loop.run_until(TIMERS.timer_d + 0.2)
        assert h.txn.state == TransactionState.TERMINATED

    def test_responses_after_termination_ignored(self):
        h = Harness()
        h.txn.start()
        h.respond(200)
        h.respond(200)
        assert len(h.responses) == 1


class TestNonInviteClient:
    def test_timer_e_caps_at_t2(self):
        h = Harness("BYE")
        h.txn.start()
        # Retransmits at 0.1, 0.3, 0.7 then every 0.4 (T2 cap): at least
        # five within two seconds -- more than uncapped doubling allows.
        h.loop.run_until(2.0)
        assert h.txn.retransmit_count >= 5

    def test_final_completes_then_timer_k(self):
        h = Harness("BYE")
        h.txn.start()
        h.respond(200)
        assert h.txn.state == TransactionState.COMPLETED
        h.loop.run_until(TIMERS.timer_k + 0.1)
        assert h.txn.state == TransactionState.TERMINATED

    def test_timer_f_times_out(self):
        h = Harness("BYE")
        h.txn.start()
        h.loop.run_until(64 * TIMERS.t1 + 0.1)
        assert h.timed_out

    def test_no_ack_for_non_invite(self):
        h = Harness("BYE")
        h.txn.start()
        h.respond(481)
        assert all(m.method == "BYE" for m in h.sent)


class AnsweringNode:
    """What an :class:`AckWait` asks of its owner, with a send log."""

    def __init__(self):
        self.loop = EventLoop()
        self.timers = TIMERS
        self.metrics = MetricsRegistry("uas")
        self.waits = {}  # Call-ID -> AckWait
        self.sent = []  # (time, next hop, message)
        self.timed_out = []  # (time, wait)

    def send(self, next_hop, message):
        self.sent.append((self.loop.now, next_hop, message))

    def answer(self, call_id="c1", observer=None):
        ok = SipResponse.for_request(make_request(), 200, to_tag="t")
        self.waits[call_id] = AckWait(self, call_id, ok, "proxy",
                                      timer_observer=observer)
        return self.waits[call_id], ok

    def pending_ack(self, call_id):
        return self.waits.get(call_id)

    def ack_timed_out(self, wait):
        del self.waits[wait.call_id]
        self.timed_out.append((self.loop.now, wait))

    def send_times(self):
        return [when for when, _hop, _message in self.sent]


#: AckWait re-sends at T1, doubling to T2 = 0.4, while before Timer H.
OK_RESEND_TIMES = [0.1, 0.3] + [round(0.7 + 0.4 * k, 10) for k in range(15)]


class TestInviteServer:
    """The INVITE server side no RFC 17.2 transaction runs: a 2xx is
    re-sent by :class:`AckWait` until its ACK (RFC 3261 13.3.1.4)."""

    def _wait(self):
        node = AnsweringNode()
        observed = []
        wait, ok = node.answer(observer=observed.append)
        return node, wait, ok, observed

    def test_retransmit_absorbed_with_replay(self):
        node, wait, ok, _observed = self._wait()
        node.loop.run_until(0.05)
        wait.replay()
        [(when, hop, replay)] = node.sent
        assert (when, hop, replay.status) == (0.05, "proxy", 200)
        assert replay is not ok  # a copy: the receiver may keep it
        node.loop.run_until(0.35)
        assert node.send_times() == pytest.approx([0.05] + OK_RESEND_TIMES[:2])

    def test_timer_h_gives_up_without_ack(self):
        node, wait, _ok, observed = self._wait()
        node.loop.run_until(10.0)
        assert node.send_times() == pytest.approx(OK_RESEND_TIMES)
        assert {hop for _when, hop, _message in node.sent} == {"proxy"}
        assert node.timed_out == [(pytest.approx(TIMERS.timer_h), wait)]
        resent = len(OK_RESEND_TIMES)
        assert node.metrics.counter("ok_retransmits").value == resent
        assert observed == ["timer-ok"] * resent

    def test_cancel_stops_the_schedule(self):
        node, wait, _ok, _observed = self._wait()
        node.loop.run_until(0.35)
        wait.cancel()
        del node.waits["c1"]
        node.loop.run_until(10.0)
        assert node.send_times() == pytest.approx(OK_RESEND_TIMES[:2])
        assert node.timed_out == []

    def test_timers_act_on_the_call_ids_current_wait(self):
        """A second 200 for a Call-ID whose first awaits its ACK inherits
        the first one's timers: both re-send chains drive the new wait,
        and the first Timer H ends it."""
        node = AnsweringNode()
        node.answer()
        node.loop.run_until(0.2)
        second, _ok = node.answer()
        node.loop.run_until(0.55)
        # 0.1: the first wait's own re-send; 0.3 twice: its chain and the
        # second's, both doubling the second wait's interval.
        assert node.send_times() == pytest.approx([0.1, 0.3, 0.3, 0.5])
        node.loop.run_until(10.0)
        assert node.timed_out == [(pytest.approx(TIMERS.timer_h), second)]
        assert max(node.send_times()) < TIMERS.timer_h
