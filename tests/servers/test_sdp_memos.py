"""The SDP memos run on both rungs and hold only pure results.

The call generator renders its offer once (it depends only on the
generator's name); the answering server memoizes offer body -> answer
body.  Both are pure functions, so a memo hit must be byte-identical to
a fresh render, a failure must never be memoized, and the answer memo
must stop growing at 256 entries.
"""

import pytest

from repro.servers.uac import CallGenerator, CallGeneratorConfig
from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse, set_engine_mode
from repro.sip.sdp import SessionDescription
from repro.sip.timers import TimerPolicy

TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)
ENGINES = ["reference", "turbo"]


class Sink:
    """Records every payload delivered to it."""

    def __init__(self, name, network):
        self.name = name
        self.received = []
        network.register(name, self)

    def receive(self, packet):
        self.received.append(packet.payload)


def _env():
    loop = EventLoop()
    rng = RngStream(7, "sdp-memo")
    return loop, rng, Network(loop, rng.spawn("net"))


@pytest.mark.parametrize("engine", ENGINES)
def test_every_invite_carries_the_same_offer(engine):
    set_engine_mode(engine)
    loop, rng, network = _env()
    sink = Sink("edge", network)
    config = CallGeneratorConfig(rate=50.0, first_hop="edge",
                                 destinations=["sip:bob@edge.example.net"],
                                 arrival="uniform", max_calls=4)
    uac = CallGenerator("uac7", loop, network, config, timers=TIMERS, rng=rng)
    uac.start()
    loop.run_until(0.2)
    bodies = {message.body for message in sink.received
              if isinstance(message, SipRequest) and message.method == "INVITE"}
    assert bodies == {SessionDescription.offer("uac7").to_body()}


def _invite(index, body):
    invite = SipRequest.build(
        "INVITE", "sip:bob@x.com", "sip:alice@y.com", "sip:bob@x.com",
        f"call-{index}", 1, f"ft{index}", body=body,
    )
    invite.add("Content-Type", "application/sdp")
    invite.push_via(Via("cli", branch=f"z9hG4bK-{index}"))
    return invite


def _answers(engine, offers):
    """Send one INVITE per offer body; the UAS, and each 200's body."""
    set_engine_mode(engine)
    loop, rng, network = _env()
    uas = AnsweringServer("uas", loop, network, timers=TIMERS, rng=rng)
    client = Sink("cli", network)
    for index, body in enumerate(offers):
        network.send("cli", "uas", _invite(index, body))
    loop.run_until(0.05)
    oks = [message for message in client.received
           if isinstance(message, SipResponse) and message.status == 200]
    assert len(oks) == len(offers)
    return uas, [ok.body for ok in oks]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_repeated_offer_gets_a_byte_identical_answer(engine):
    offer = SessionDescription.offer("uac7").to_body()
    uas, bodies = _answers(engine, [offer] * 3)
    fresh = SessionDescription.parse(offer).answer("uas").to_body()
    assert bodies == [fresh] * 3
    assert uas._answer_memo == {offer: fresh}


@pytest.mark.parametrize("engine", ENGINES)
def test_a_malformed_offer_fails_every_time(engine):
    uas, bodies = _answers(engine, ["not sdp\r\n"] * 3)
    assert bodies == [""] * 3
    assert uas.metrics.counters()["bad_sdp_offers"] == 3
    assert uas._answer_memo == {}


@pytest.mark.parametrize("engine", ENGINES)
def test_the_answer_memo_stops_at_256_entries(engine):
    offers = [SessionDescription.offer(f"host{index}").to_body()
              for index in range(300)]
    uas, bodies = _answers(engine, offers)
    assert len(uas._answer_memo) == 256
    assert list(uas._answer_memo) == offers[:256]
    assert bodies == [SessionDescription.parse(offer).answer("uas").to_body()
                      for offer in offers]
