"""What the two answering nodes put on the wire and how they keep a call.

The UAS (:class:`AnsweringServer`) and the B2BUA's leg A
(:class:`B2buaServer`) both answer calls.  These tests pin, against a
scripted caller (and, for the B2BUA, a scripted leg-B first hop):

- the exact ``to_wire()`` text of every reply: 180, 200, the
  re-INVITE's 200, 481, 487, the BYE's 200, the CANCEL's 200 and the 200
  to any other method;
- the replay of a pending 200 to a retransmitted INVITE or to a
  re-INVITE (``invite_retransmits_seen``);
- the ACK, BYE and CANCEL counters;
- Timer H on a 200 that never gets its ACK: the UAS ends the call when
  the 200 answered the initial INVITE, the B2BUA keeps it up;
- a crash, which stops every pending wait.
"""

import pytest

from repro.servers.b2bua import B2buaServer
from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import TimerPolicy

from tests.servers.test_client_side import OFFER, Peer, wire

TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)
KINDS = ("uas", "b2bua")
#: Leg B's answer, which the B2BUA's 200 on leg A carries.
LEG_B_ANSWER = "v=0\r\no=peer 0 0 IN IP4 peer\r\n"


class Caller:
    """Keeps every response that reaches it, with its wire text."""

    def __init__(self, network, name="cli"):
        self.responses = []
        self.wires = []
        self.ok_sent_at = []  # send time of each 200 to an INVITE
        network.register(name, self)

    def receive(self, packet):
        response = packet.payload
        self.responses.append(response)
        self.wires.append(response.to_wire())
        if response.status == 200 and response.cseq.method == "INVITE":
            self.ok_sent_at.append(packet.sent_at)

    def statuses(self):
        return [response.status for response in self.responses]


class LegB(Peer):
    """A leg-B first hop whose 200 to an INVITE carries an SDP answer;
    set ``silent`` and it answers nothing."""

    silent = False

    def receive(self, packet):
        if not self.silent:
            super().receive(packet)

    def reply(self, request, status, dst):
        if status == 200 and request.method == "INVITE":
            response = SipResponse.for_request(request, 200, to_tag="callee")
            response.body = LEG_B_ANSWER
            response.add("Content-Type", "application/sdp")
            self.network.send(self.name, dst, response)
        else:
            super().reply(request, status, dst)


def make_env(kind, ring=False):
    """``ring`` keeps the INVITE unanswered after its 180 (the UAS rings
    for 0.5 s, the B2BUA's leg B never answers)."""
    loop = EventLoop()
    network = Network(loop, RngStream(7, "server-side").spawn("net"))
    if kind == "uas":
        node = AnsweringServer("uas", loop, network, timers=TIMERS,
                               ring_delay=0.5 if ring else 0.0,
                               rng=RngStream(7, "uas"))
    else:
        node = B2buaServer("b2b", loop, network, first_hop="peer",
                           dest_domain="x.com", timers=TIMERS,
                           rng=RngStream(7, "b2b"))
        LegB(network, ring=ring)
    caller = Caller(network)
    return loop, network, node, caller


def request(method, cseq=1, to_tag=None, call_id="a-1", body=""):
    message = SipRequest.build(
        method, "sip:alice@edge.example.net", "sip:carol@y.com",
        "sip:alice@edge.example.net", call_id, cseq, "ft", to_tag=to_tag,
        body=body)
    if body:
        message.add("Content-Type", "application/sdp")
    message.push_via(Via("cli", branch=f"z9hG4bK-{call_id}-{method}-{cseq}"))
    return message


def invite(call_id="a-1"):
    return request("INVITE", call_id=call_id, body=OFFER)


def to_tag(kind):
    return "uas-uas-1" if kind == "uas" else "b2b-b2b-1"


def send(network, node, message):
    network.send("cli", node.name, message)


def counter(node, name):
    return node.metrics.counter(name).value


def answered(kind, acked=True):
    """A call answered (and, with ``acked``, ACKed) at ``kind``."""
    loop, network, node, caller = make_env(kind)
    send(network, node, invite())
    loop.run_until(0.01)
    assert caller.statuses() == [180, 200]
    if acked:
        send(network, node, request("ACK", to_tag=to_tag(kind)))
        loop.run_until(0.02)
    return loop, network, node, caller


def pending_reinvite_ok(kind):
    """An ACKed call whose re-INVITE's 200 awaits its ACK."""
    loop, network, node, caller = answered(kind)
    caller.ok_sent_at.clear()
    send(network, node, request("INVITE", 2, to_tag=to_tag(kind)))
    loop.run_until(0.03)
    return loop, network, node, caller


# ---------------------------------------------------------------------------
# (a) the wire text of every reply
# ---------------------------------------------------------------------------
REASONS = {180: "Ringing", 200: "OK", 481: "Call/Transaction Does Not Exist",
           487: "Request Terminated"}


def reply(status, method, cseq=1, tag=None, *extra, body=""):
    """A reply to ``request(method, cseq)`` of call ``a-1``."""
    to = "To: <sip:alice@edge.example.net>"
    return wire(
        f"SIP/2.0 {status} {REASONS[status]}",
        f"Via: SIP/2.0/UDP cli;branch=z9hG4bK-a-1-{method}-{cseq}",
        "From: <sip:carol@y.com>;tag=ft",
        f"{to};tag={tag}" if tag else to,
        "Call-ID: a-1",
        f"CSeq: {cseq} {method}",
        *extra,
        f"Content-Length: {len(body)}", body=body)


UAS_ANSWER = (
    "v=0\r\no=uas 1 0 IN IP4 uas\r\ns=call\r\nc=IN IP4 uas\r\nt=0 0\r\n"
    "m=audio 49180 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n"
)


def ok_body(kind):
    return UAS_ANSWER if kind == "uas" else LEG_B_ANSWER


@pytest.mark.parametrize("kind", KINDS)
class TestWire:
    def test_180_and_200(self, kind):
        _loop, _network, _node, caller = answered(kind, acked=False)
        tag = to_tag(kind)
        assert caller.wires == [
            reply(180, "INVITE", 1, tag),
            reply(200, "INVITE", 1, tag, "Content-Type: application/sdp",
                  body=ok_body(kind)),
        ]

    def test_in_dialog_replies(self, kind):
        loop, network, node, caller = answered(kind)
        tag = to_tag(kind)
        del caller.wires[:]
        send(network, node, request("INVITE", 2, to_tag=tag))
        loop.run_until(0.03)
        send(network, node, request("ACK", 2, to_tag=tag))
        send(network, node, request("INVITE", 3, to_tag="stranger"))
        send(network, node, request("OPTIONS", 4, to_tag=tag))
        send(network, node, request("BYE", 5, to_tag=tag))
        loop.run_until(0.04)
        assert caller.wires == [
            reply(200, "INVITE", 2, tag),
            reply(481, "INVITE", 3, "stranger"),
            reply(200, "OPTIONS", 4, tag),
            reply(200, "BYE", 5, tag),
        ]
        assert counter(node, "reinvites_unknown") == 1
        assert counter(node, "other_requests") == 1
        assert counter(node, "calls_completed") == 1

    def test_reinvite_with_an_offer(self, kind):
        # The UAS answers a refresh's offer; the B2BUA answers the
        # refresh locally, with no body.
        loop, network, node, caller = answered(kind)
        tag = to_tag(kind)
        send(network, node, request("INVITE", 2, to_tag=tag, body=OFFER))
        loop.run_until(0.03)
        extra, body = ((("Content-Type: application/sdp",), UAS_ANSWER)
                       if kind == "uas" else ((), ""))
        assert caller.wires[2:] == [
            reply(200, "INVITE", 2, tag, *extra, body=body)]

    def test_cancel_while_ringing(self, kind):
        loop, network, node, caller = make_env(kind, ring=True)
        send(network, node, invite())
        loop.run_until(0.01)
        send(network, node, request("CANCEL"))
        loop.run_until(1.0)
        tag = to_tag(kind)
        # The B2BUA sends its 180 with its 200, once leg B answers.
        ringing = [reply(180, "INVITE", 1, tag)] if kind == "uas" else []
        assert caller.wires == ringing + [
            reply(200, "CANCEL", 1),
            reply(487, "INVITE", 1, tag),
        ]
        assert counter(node, "calls_cancelled") == 1
        assert counter(node, "cancels_too_late") == 0


# ---------------------------------------------------------------------------
# (b) replays and counters
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
class TestReplays:
    def test_retransmitted_invite_replays_the_200(self, kind):
        loop, network, node, caller = answered(kind, acked=False)
        send(network, node, invite())
        loop.run_until(0.02)
        assert caller.statuses() == [180, 200, 200]
        assert caller.wires[2] == caller.wires[1]
        assert counter(node, "invite_retransmits_seen") == 1
        assert counter(node, "calls_received") == 1

    def test_reinvite_while_the_200_is_pending_replays_it(self, kind):
        loop, network, node, caller = answered(kind, acked=False)
        send(network, node, request("INVITE", 2, to_tag=to_tag(kind)))
        loop.run_until(0.02)
        assert caller.statuses() == [180, 200, 200]
        assert caller.wires[2] == caller.wires[1]  # the INVITE's 200
        assert counter(node, "invite_retransmits_seen") == 1
        assert counter(node, "reinvites_unknown") == 0

    def test_retransmitted_reinvite_replays_its_200(self, kind):
        loop, network, node, caller = pending_reinvite_ok(kind)
        send(network, node, request("INVITE", 2, to_tag=to_tag(kind)))
        loop.run_until(0.04)
        assert caller.statuses() == [180, 200, 200, 200]
        assert caller.wires[3] == caller.wires[2]
        assert caller.responses[3].cseq.number == 2
        assert counter(node, "invite_retransmits_seen") == 1
        assert len(caller.ok_sent_at) == 2


@pytest.mark.parametrize("kind", KINDS)
class TestCounters:
    def test_second_ack_is_a_duplicate(self, kind):
        loop, network, node, caller = answered(kind)
        send(network, node, request("ACK", to_tag=to_tag(kind)))
        loop.run_until(1.0)
        assert counter(node, "acks_received") == 1
        assert counter(node, "ack_duplicates") == 1
        assert counter(node, "ok_retransmits") == 0

    def test_second_bye_is_a_duplicate(self, kind):
        loop, network, node, caller = answered(kind)
        bye = request("BYE", 2, to_tag=to_tag(kind))
        send(network, node, bye)
        send(network, node, bye.copy())
        loop.run_until(0.05)
        assert caller.statuses() == [180, 200, 200, 200]
        assert caller.wires[3] == caller.wires[2]
        assert counter(node, "calls_completed") == 1
        assert counter(node, "bye_duplicates") == 1

    def test_cancel_after_the_answer_is_too_late(self, kind):
        loop, network, node, caller = answered(kind)
        send(network, node, request("CANCEL"))
        loop.run_until(0.05)
        assert caller.wires[2:] == [reply(200, "CANCEL", 1)]
        assert counter(node, "cancels_too_late") == 1
        assert counter(node, "calls_cancelled") == 0

    def test_bye_while_the_200_is_pending(self, kind):
        # The B2BUA's BYE stops the 200's wait; the UAS's leaves it to
        # run until Timer H, when the call is already gone.
        loop, network, node, caller = answered(kind, acked=False)
        send(network, node, request("BYE", 2, to_tag=to_tag(kind)))
        loop.run_until(5.0)
        assert counter(node, "calls_completed") == 1
        if kind == "uas":
            assert len(caller.ok_sent_at) == 18
            assert counter(node, "ok_retransmits") == 17
            assert counter(node, "calls_never_acked") == 1
        else:
            assert len(caller.ok_sent_at) == 1
            assert counter(node, "ok_retransmits") == 0
            assert counter(node, "calls_never_acked") == 0


# ---------------------------------------------------------------------------
# (c) Timer H and crashes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
class TestTimerH:
    def test_initial_200(self, kind):
        loop, network, node, caller = answered(kind, acked=False)
        loop.run_until(5.0)
        assert len(caller.ok_sent_at) == 18
        assert counter(node, "calls_never_acked") == 1
        send(network, node, request("BYE", 2, to_tag=to_tag(kind)))
        loop.run_until(5.1)
        if kind == "uas":  # the call ended with its 200
            assert counter(node, "bye_duplicates") == 1
            assert counter(node, "calls_completed") == 0
        else:  # the call stays up
            assert counter(node, "bye_duplicates") == 0
            assert counter(node, "calls_completed") == 1

    def test_reinvite_200(self, kind):
        loop, network, node, caller = pending_reinvite_ok(kind)
        loop.run_until(5.0)
        assert len(caller.ok_sent_at) == 18
        assert counter(node, "reinvites_never_acked") == 1
        assert counter(node, "calls_never_acked") == 0
        send(network, node, request("BYE", 3, to_tag=to_tag(kind)))
        loop.run_until(5.1)
        assert counter(node, "calls_completed") == 1


@pytest.mark.parametrize("kind", KINDS)
def test_crash_stops_every_pending_wait(kind):
    # Call 1's 200 awaits its ACK, call 2's re-INVITE 200 too, and call
    # 3 is still ringing (the B2BUA's leg-B INVITE is unanswered and
    # retransmitting).
    ring = 0.5 if kind == "uas" else 0.0
    loop, network, node, caller = make_env(kind)
    node.ring_delay = ring
    for call_id in ("a-1", "a-2"):
        send(network, node, invite(call_id))
    loop.run_until(ring + 0.01)
    tags = [r.to.tag for r in caller.responses if r.status == 200]
    send(network, node, request("ACK", to_tag=tags[1], call_id="a-2"))
    send(network, node, request("INVITE", 2, to_tag=tags[1], call_id="a-2"))
    loop.run_until(ring + 0.02)
    if kind == "b2bua":
        network.node("peer").silent = True
    send(network, node, invite("a-3"))
    loop.run_until(ring + 0.1)
    assert [r.status for r in caller.responses if r.call_id == "a-3"] == (
        [180] if kind == "uas" else [])
    sent = len(caller.responses)
    node.crash()
    loop.run_until(10.0)
    assert len(caller.responses) == sent
    assert counter(node, "calls_lost_on_crash") == 3
    assert counter(node, "sends_while_dead") == 0
    assert counter(node, "calls_never_acked") == 0
    assert counter(node, "reinvites_never_acked") == 0
