"""Unit tests for the answering server (UAS)."""

import pytest

from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import TimerPolicy

TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)


#: When a 200 to an INVITE goes out, relative to the first send: T1
#: doubling, capped at T2 = 4 * T1, until Timer H (64 * T1 = 3.2 s).
OK_SEND_TIMES = [0.0, 0.05, 0.15] + [0.35 + 0.2 * k for k in range(15)]


class Client:
    """Records responses the UAS sends back."""

    def __init__(self, name, network):
        self.name = name
        self.received = []
        self.ok_sent_at = []  # send time of each 200 to an INVITE
        network.register(name, self)

    def receive(self, packet):
        message = packet.payload
        self.received.append(message)
        if (isinstance(message, SipResponse) and message.status == 200
                and message.cseq.method == "INVITE"):
            self.ok_sent_at.append(packet.sent_at)

    def statuses(self):
        return [m.status for m in self.received if isinstance(m, SipResponse)]

    def ok_schedule(self):
        """Send times of the 200s to INVITEs, relative to the first."""
        return [t - self.ok_sent_at[0] for t in self.ok_sent_at]


def make_env(ring_delay=0.0):
    loop = EventLoop()
    network = Network(loop, RngStream(3, "uas-test").spawn("net"))
    uas = AnsweringServer("uas", loop, network, timers=TIMERS,
                          ring_delay=ring_delay, rng=RngStream(3, "uas"))
    client = Client("cli", network)
    return loop, network, uas, client


def make_invite(call_id="c1", branch="z9hG4bKi1"):
    invite = SipRequest.build(
        "INVITE", "sip:bob@x.com", "sip:alice@y.com", "sip:bob@x.com",
        call_id, 1, "ft",
    )
    invite.push_via(Via("cli", branch=branch))
    return invite


def make_reinvite(to_tag, call_id="c1"):
    reinvite = SipRequest.build(
        "INVITE", "sip:bob@x.com", "sip:alice@y.com", "sip:bob@x.com",
        call_id, 2, "ft", to_tag=to_tag,
    )
    reinvite.push_via(Via("cli", branch="z9hG4bKr1"))
    return reinvite


def make_ack(call_id="c1", to_tag=None, cseq=1):
    ack = SipRequest.build(
        "ACK", "sip:bob@x.com", "sip:alice@y.com", "sip:bob@x.com",
        call_id, cseq, "ft", to_tag=to_tag,
    )
    ack.set("CSeq", f"{cseq} ACK")
    ack.push_via(Via("cli", branch="z9hG4bKa1"))
    return ack


def make_bye(call_id="c1"):
    bye = SipRequest.build(
        "BYE", "sip:bob@x.com", "sip:alice@y.com", "sip:bob@x.com",
        call_id, 2, "ft", to_tag="tt",
    )
    bye.push_via(Via("cli", branch="z9hG4bKb1"))
    return bye


class TestAnswerFlow:
    def test_invite_answered_180_then_200(self):
        loop, network, uas, client = make_env()
        network.send("cli", "uas", make_invite())
        loop.run_until(0.01)
        assert client.statuses() == [180, 200]
        assert uas.calls_received == 1

    def test_ring_delay_defers_200(self):
        loop, network, uas, client = make_env(ring_delay=0.5)
        network.send("cli", "uas", make_invite())
        loop.run_until(0.1)
        assert client.statuses() == [180]
        loop.run_until(0.7)
        assert client.statuses()[-1] == 200

    def test_200_carries_to_tag(self):
        loop, network, uas, client = make_env()
        network.send("cli", "uas", make_invite())
        loop.run_until(0.01)
        ok = [m for m in client.received if m.status == 200][0]
        assert ok.to.tag is not None

    def test_bye_completes_call(self):
        loop, network, uas, client = make_env()
        network.send("cli", "uas", make_invite())
        loop.run_until(0.01)
        network.send("cli", "uas", make_ack())
        loop.run_until(0.02)
        network.send("cli", "uas", make_bye())
        loop.run_until(0.03)
        assert client.statuses()[-1] == 200
        assert uas.calls_completed == 1


def answer_pending_200(reinvite):
    """An environment whose last 200 awaits its ACK; for ``reinvite``
    the initial 200 was ACKed and a re-INVITE answered."""
    loop, network, uas, client = make_env()
    network.send("cli", "uas", make_invite())
    loop.run_until(0.01)
    if reinvite:
        to_tag = client.received[-1].to.tag
        network.send("cli", "uas", make_ack(to_tag=to_tag))
        loop.run_until(0.02)
        client.ok_sent_at.clear()
        network.send("cli", "uas", make_reinvite(to_tag))
        loop.run_until(0.03)
    return loop, network, uas, client


class TestRetransmissionBehaviour:
    def test_200_retransmitted_until_ack(self):
        for reinvite in (False, True):
            for acked_after in (0, 1, 2, 3, 5):
                loop, network, uas, client = answer_pending_200(reinvite)
                first = client.ok_sent_at[0]
                loop.run_until(first + OK_SEND_TIMES[acked_after] + 0.01)
                network.send("cli", "uas",
                             make_ack(cseq=2 if reinvite else 1))
                loop.run_until(first + 5.0)
                case = f"reinvite={reinvite} acked_after={acked_after}"
                assert client.ok_schedule() == pytest.approx(
                    OK_SEND_TIMES[:acked_after + 1]), case
                assert uas.metrics.counter(
                    "ok_retransmits").value == acked_after, case

    @pytest.mark.parametrize("reinvite", [False, True],
                             ids=["invite", "reinvite"])
    def test_200_schedule_ends_at_timer_h(self, reinvite):
        loop, network, uas, client = answer_pending_200(reinvite)
        loop.run_until(client.ok_sent_at[0] + 5.0)
        assert client.ok_schedule() == pytest.approx(OK_SEND_TIMES)
        given_up = "reinvites_never_acked" if reinvite else "calls_never_acked"
        assert uas.metrics.counter(given_up).value == 1

    def test_retransmitted_invite_replays_200(self):
        loop, network, uas, client = make_env()
        invite = make_invite()
        network.send("cli", "uas", invite)
        loop.run_until(0.01)
        network.send("cli", "uas", invite.copy())
        loop.run_until(0.02)
        assert uas.calls_received == 1  # not double counted
        assert client.statuses().count(200) >= 2

    def test_gives_up_after_timer_h(self):
        loop, network, uas, client = make_env()
        network.send("cli", "uas", make_invite())
        loop.run_until(64 * TIMERS.t1 + 0.5)
        assert uas.metrics.counter("calls_never_acked").value == 1
        # Call record cleaned up: a late BYE is treated as a duplicate.
        network.send("cli", "uas", make_bye())
        loop.run_until(loop.now + 0.1)
        assert uas.metrics.counter("bye_duplicates").value == 1

    def test_duplicate_bye_still_answered(self):
        loop, network, uas, client = make_env()
        network.send("cli", "uas", make_invite())
        loop.run_until(0.01)
        network.send("cli", "uas", make_ack())
        bye = make_bye()
        network.send("cli", "uas", bye)
        network.send("cli", "uas", bye.copy())
        loop.run_until(0.05)
        assert uas.calls_completed == 1
        assert client.statuses().count(200) >= 3  # INVITE 200 + 2 BYE 200s


class TestEdgeCases:
    def test_unknown_method_gets_200(self):
        loop, network, uas, client = make_env()
        options = SipRequest.build(
            "OPTIONS", "sip:bob@x.com", "sip:a@y.com", "sip:bob@x.com",
            "c9", 1, "ft",
        )
        options.push_via(Via("cli", branch="z9hG4bKo"))
        network.send("cli", "uas", options)
        loop.run_until(0.01)
        assert client.statuses() == [200]

    def test_stray_response_counted(self):
        loop, network, uas, client = make_env()
        stray = SipResponse(200)
        stray.add("Via", "SIP/2.0/UDP cli;branch=z9hG4bKx")
        network.send("cli", "uas", stray)
        loop.run_until(0.01)
        assert uas.metrics.counter("stray_responses").value == 1

    def test_unroutable_via_falls_back_to_the_sender(self):
        loop, network, uas, client = make_env()
        invite = make_invite()
        invite.remove("Via")
        invite.add("Via", "SIP/2.0/UDP ghost-node;branch=z9hG4bKg")
        network.send("cli", "uas", invite)
        loop.run_until(0.01)
        # Every reply goes to the request's sender when the network does
        # not know its Via host.
        assert client.statuses() == [180, 200]
        assert uas.metrics.counter("unroutable_responses").value == 0
