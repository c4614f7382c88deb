"""Unit tests for the B2BUA's leg A, where it answers like a UAS.

Leg B runs to a plain :class:`AnsweringServer`; the caller is a stub
that records when each 200 to an INVITE left the B2BUA, so the leg-A
retransmission schedule is asserted to the tick.
"""

import pytest

from repro.servers.b2bua import B2buaServer
from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream

from tests.servers.test_uas import (
    OK_SEND_TIMES,
    TIMERS,
    Client,
    make_ack,
    make_bye,
    make_invite,
    make_reinvite,
)


def make_env():
    loop = EventLoop()
    network = Network(loop, RngStream(5, "b2bua-test").spawn("net"))
    b2bua = B2buaServer("b2b", loop, network, first_hop="uas",
                        dest_domain="x.com", timers=TIMERS,
                        rng=RngStream(5, "b2b"))
    AnsweringServer("uas", loop, network, timers=TIMERS,
                    rng=RngStream(5, "uas"))
    client = Client("cli", network)
    return loop, network, b2bua, client


def send(network, message):
    network.send("cli", "b2b", message)


def answer_pending_200(reinvite):
    """Leg A's last 200 awaits its ACK; for ``reinvite`` the initial 200
    was ACKed and a leg-A re-INVITE answered."""
    loop, network, b2bua, client = make_env()
    send(network, make_invite())
    loop.run_until(0.01)
    assert client.statuses() == [180, 200]
    if reinvite:
        to_tag = client.received[-1].to.tag
        send(network, make_ack(to_tag=to_tag))
        loop.run_until(0.02)
        client.ok_sent_at.clear()
        send(network, make_reinvite(to_tag))
        loop.run_until(0.03)
    return loop, network, b2bua, client


def counter(b2bua, name):
    return b2bua.metrics.counter(name).value


@pytest.mark.parametrize("reinvite", [False, True], ids=["invite", "reinvite"])
class TestLegAOk:
    @pytest.mark.parametrize("acked_after", [0, 1, 2, 3, 5])
    def test_ack_stops_the_retransmissions(self, reinvite, acked_after):
        loop, network, b2bua, client = answer_pending_200(reinvite)
        first = client.ok_sent_at[0]
        loop.run_until(first + OK_SEND_TIMES[acked_after] + 0.01)
        send(network, make_ack(cseq=2 if reinvite else 1))
        loop.run_until(first + 5.0)
        assert client.ok_schedule() == pytest.approx(
            OK_SEND_TIMES[:acked_after + 1])
        assert counter(b2bua, "ok_retransmits") == acked_after
        assert counter(b2bua, "acks_received") == 1 + reinvite
        assert counter(b2bua, "calls_never_acked") == 0

    def test_timer_h_gives_up(self, reinvite):
        loop, network, b2bua, client = answer_pending_200(reinvite)
        loop.run_until(client.ok_sent_at[0] + 5.0)
        assert client.ok_schedule() == pytest.approx(OK_SEND_TIMES)
        # A re-INVITE's abandoned 200 is counted apart, as the UAS does.
        assert counter(b2bua, "calls_never_acked") == 1 - reinvite
        assert counter(b2bua, "reinvites_never_acked") == reinvite
        # The call survives the give-up: a late ACK finds nothing
        # pending, a BYE still completes it.
        send(network, make_ack())
        send(network, make_bye())
        loop.run_until(loop.now + 0.1)
        assert counter(b2bua, "ack_duplicates") == 1
        assert counter(b2bua, "calls_completed") == 1
        assert b2bua.live_calls == 0

    def test_retransmitted_request_replays_the_200(self, reinvite):
        loop, network, b2bua, client = answer_pending_200(reinvite)
        pending = client.received[-1]
        request = (make_reinvite(pending.to.tag) if reinvite
                   else make_invite())
        send(network, request)
        loop.run_until(loop.now + 0.01)
        replay = client.received[-1]
        assert replay.status == 200
        assert replay is not pending  # a copy, not the stored 200
        assert replay.cseq.number == pending.cseq.number
        assert len(client.ok_sent_at) == 2
        assert counter(b2bua, "invite_retransmits_seen") == 1
        assert counter(b2bua, "calls_received") == 1
        # The replay leaves the schedule alone.
        send(network, make_ack(cseq=pending.cseq.number))
        loop.run_until(loop.now + 1.0)
        assert len(client.ok_sent_at) == 2
        assert counter(b2bua, "ok_retransmits") == 0

    def test_bye_while_pending_stops_the_retransmissions(self, reinvite):
        loop, network, b2bua, client = answer_pending_200(reinvite)
        send(network, make_bye())
        loop.run_until(loop.now + 1.0)
        assert len(client.ok_sent_at) == 1
        assert counter(b2bua, "calls_completed") == 1
        assert counter(b2bua, "calls_never_acked") == 0


def test_crash_stops_the_retransmissions():
    loop, network, b2bua, client = answer_pending_200(False)
    b2bua.crash()
    loop.run_until(5.0)
    assert len(client.ok_sent_at) == 1
    assert counter(b2bua, "calls_lost_on_crash") == 1
    assert counter(b2bua, "calls_never_acked") == 0
