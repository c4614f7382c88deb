"""What the three request-sending nodes put on the wire and how they
match what comes back.

The UAC (:class:`CallGenerator`), the B2BUA's leg B and the registrar
client each send requests through RFC 3261 client transactions.  These
tests pin, against a scripted first hop:

- the exact ``to_wire()`` text of every request each of them builds;
- their response dispatch: a late 2xx to an ended INVITE is re-ACKed
  once (``acks_resent``), a response that matches no transaction counts
  in ``late_responses``, and the UAC's ``retransmissions()`` equals the
  retransmissions it made, harvested or still live.
"""

from repro.servers.b2bua import B2buaServer
from repro.servers.registrar_client import RegistrarClient
from repro.servers.uac import CallGenerator, CallGeneratorConfig
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import TimerPolicy

TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)
ROUTES = ("<sip:P1;lr>", "<sip:P2;lr>")


class Peer:
    """A scripted first hop: it answers like a UAS and keeps the wire
    text of every request that reaches it.

    ``ring`` answers a new INVITE with a 180 only; ``drop_first``
    ignores the first copy of every request but an ACK, so each client
    transaction retransmits exactly once; ``ignore`` names methods it
    never answers.
    """

    def __init__(self, network, name="peer", ring=False, drop_first=False,
                 ignore=()):
        self.network = network
        self.name = name
        self.ring = ring
        self.drop_first = drop_first
        self.ignore = ignore
        self.wires = []
        self.requests = []
        self._seen = set()
        self.last_ok = None  # (the last 200 sent, its receiver)
        network.register(name, self)

    def receive(self, packet):
        request = packet.payload
        if isinstance(request, SipResponse):
            return
        self.wires.append(request.to_wire())
        self.requests.append(request)
        if request.method == "ACK" or request.method in self.ignore:
            return
        key = (request.top_via.branch, request.method)
        if self.drop_first and key not in self._seen:
            self._seen.add(key)
            return
        self._seen.add(key)
        if request.method == "INVITE":
            self.reply(request, 180, packet.src)
            if self.ring and request.to.tag is None:
                return
        self.reply(request, 200, packet.src)

    def reply(self, request, status, dst):
        response = SipResponse.for_request(request, status, to_tag="callee")
        if status == 200:
            if request.method == "INVITE":
                for route in ROUTES:
                    response.add("Record-Route", route)
            self.last_ok = (response, dst)
        self.network.send(self.name, dst, response)

    def methods(self):
        return [request.method for request in self.requests]

    def resend_last_ok(self):
        response, dst = self.last_ok
        self.network.send(self.name, dst, response)

    def send_stray(self, dst, method="INVITE"):
        """A 200 whose top Via names no transaction of ``dst``."""
        stray = SipRequest.build(
            method, "sip:x@y.com", "sip:a@y.com", "sip:x@y.com", "stray-1",
            1, "ft")
        stray.push_via(Via(dst, branch="z9hG4bK-unknown"))
        self.network.send(self.name, dst,
                          SipResponse.for_request(stray, 200, to_tag="t"))


def make_uac(peer_options=None, **config):
    loop = EventLoop()
    network = Network(loop, RngStream(5, "client-side").spawn("net"))
    peer = Peer(network, **(peer_options or {}))
    options = dict(rate=10.0, first_hop="peer", arrival="uniform",
                   destinations=["sip:bob@edge.example.net"], max_calls=1)
    options.update(config)
    uac = CallGenerator("uac1", loop, network, CallGeneratorConfig(**options),
                        timers=TIMERS, rng=RngStream(5, "uac"))
    return loop, network, uac, peer


def make_b2bua():
    loop = EventLoop()
    network = Network(loop, RngStream(5, "client-side").spawn("net"))
    peer = Peer(network)
    b2bua = B2buaServer("b2b", loop, network, first_hop="peer",
                        dest_domain="x.com", timers=TIMERS,
                        rng=RngStream(5, "b2b"))
    caller = Peer(network, name="cli")
    return loop, network, b2bua, peer, caller


def leg_a(method, cseq, to_tag=None):
    request = SipRequest.build(
        method, "sip:alice@b2b.example.net", "sip:carol@y.com",
        "sip:alice@b2b.example.net", "a-1", cseq, "ft", to_tag=to_tag,
        body="v=0\r\n" if method == "INVITE" else "")
    request.push_via(Via("cli", branch=f"z9hG4bK-a-{method}-{cseq}"))
    return request


def make_registrar(**options):
    loop = EventLoop()
    network = Network(loop, RngStream(5, "client-side").spawn("net"))
    peer = Peer(network)
    client = RegistrarClient(
        "uas1-reg", loop, network, registrar="peer",
        aors=["sip:carol@edge.example.net"], refresh_interval=10.0,
        expires=20.0, timers=TIMERS, rng=RngStream(5, "reg"), **options)
    return loop, network, client, peer


def counter(node, name):
    return node.metrics.counter(name).value


# ---------------------------------------------------------------------------
# (a) the wire text of every request a UA builds
# ---------------------------------------------------------------------------
def wire(*lines, body=""):
    return "\r\n".join(lines) + "\r\n\r\n" + body


OFFER = (
    "v=0\r\no=uac1 0 0 IN IP4 uac1\r\ns=call\r\nc=IN IP4 uac1\r\n"
    "t=0 0\r\nm=audio 49170 RTP/AVP 0 8 101\r\na=rtpmap:0 PCMU/8000\r\n"
    "a=rtpmap:8 PCMA/8000\r\na=rtpmap:101 telephone-event/8000\r\n"
)
UAC_DIALOG = (
    "From: <sip:user1@clients.example.com>;tag=uac-1",
    "To: <sip:bob@edge.example.net>;tag=callee",
    "Call-ID: uac1-call-1",
)
UAC_INVITE_HEAD = (
    "INVITE sip:bob@edge.example.net SIP/2.0",
    "Via: SIP/2.0/UDP uac1;branch=z9hG4bK-uac1-1",
    "From: <sip:user1@clients.example.com>;tag=uac-1",
    "To: <sip:bob@edge.example.net>",
    "Call-ID: uac1-call-1",
    "CSeq: 1 INVITE",
    "Max-Forwards: 70",
    "Contact: <sip:uac1>",
    "Content-Type: application/sdp",
)
UAC_INVITE = wire(*UAC_INVITE_HEAD, "Content-Length: 169", body=OFFER)


def uac_in_dialog(method, branch, cseq, *extra):
    return wire(
        f"{method} sip:bob@edge.example.net SIP/2.0",
        f"Via: SIP/2.0/UDP uac1;branch=z9hG4bK-uac1-{branch}",
        *UAC_DIALOG, f"CSeq: {cseq} {method}", "Max-Forwards: 70", *extra,
        "Route: <sip:P1;lr>", "Route: <sip:P2;lr>", "Content-Length: 0")


def leg_b_in_dialog(method, branch, cseq):
    return wire(
        f"{method} sip:alice@x.com SIP/2.0",
        f"Via: SIP/2.0/UDP b2b;branch=z9hG4bK-b2b-{branch}",
        "From: <sip:leg1@b2b>;tag=b2b-1",
        "To: <sip:alice@x.com>;tag=callee",
        "Call-ID: b2b-b2b-1",
        f"CSeq: {cseq} {method}", "Max-Forwards: 70",
        "Route: <sip:P1;lr>", "Route: <sip:P2;lr>", "Content-Length: 0")


REGISTER_HEAD = (
    "REGISTER sip:carol@edge.example.net SIP/2.0",
    "Via: SIP/2.0/UDP uas1-reg;branch=z9hG4bK-uas1-reg-reg1",
    "From: <sip:carol@edge.example.net>;tag=reg-uas1-reg",
    "To: <sip:carol@edge.example.net>",
    "Call-ID: uas1-reg-reg-sip:carol@edge.example.net",
    "Max-Forwards: 70",
    "CSeq: 1 REGISTER",
    "Contact: <sip:uas1-reg>",
    "Expires: 20",
)


class TestUacWire:
    def test_call_with_refresh(self):
        loop, _network, uac, peer = make_uac(hold_time=0.3,
                                             reinvite_after=0.1)
        uac.start()
        loop.run_until(2.0)
        assert uac.calls_completed == 1
        assert peer.wires == [
            UAC_INVITE,
            uac_in_dialog("ACK", 2, 1),
            uac_in_dialog("INVITE", 3, 2, "Contact: <sip:uac1>"),
            uac_in_dialog("ACK", 4, 2),
            uac_in_dialog("BYE", 5, 3),
        ]

    def test_invite_with_credentials(self):
        loop, _network, uac, peer = make_uac(
            auth_username="u1", auth_password="pw", auth_realm="r.example")
        uac.start()
        loop.run_until(0.01)
        assert peer.wires[0] == wire(
            *UAC_INVITE_HEAD,
            'Proxy-Authorization: Digest username="u1", realm="r.example", '
            'nonce="repro-nonce", uri="sip:bob@edge.example.net", '
            'response="fc6f03d1f7ad208ef3b28eea1955dc40"',
            "Content-Length: 169", body=OFFER)
        assert peer.wires[1:] == [uac_in_dialog("ACK", 2, 1),
                                  uac_in_dialog("BYE", 3, 2)]

    def test_cancel_reuses_the_invite_branch(self):
        loop, _network, uac, peer = make_uac(
            peer_options=dict(ring=True), abandon_after=0.05)
        uac.start()
        loop.run_until(0.2)
        assert peer.wires == [UAC_INVITE, wire(
            "CANCEL sip:bob@edge.example.net SIP/2.0",
            "Via: SIP/2.0/UDP uac1;branch=z9hG4bK-uac1-1",
            "From: <sip:user1@clients.example.com>;tag=uac-1",
            "To: <sip:bob@edge.example.net>",
            "Call-ID: uac1-call-1",
            "CSeq: 1 CANCEL",
            "Max-Forwards: 70",
            "Content-Length: 0",
        )]


class TestB2buaWire:
    def test_leg_b_call(self):
        loop, network, b2bua, peer, _caller = make_b2bua()
        network.send("cli", "b2b", leg_a("INVITE", 1))
        loop.run_until(0.01)
        network.send("cli", "b2b", leg_a("BYE", 2, to_tag="b2b-b2b-1"))
        loop.run_until(0.02)
        assert peer.wires == [
            wire(
                "INVITE sip:alice@x.com SIP/2.0",
                "Via: SIP/2.0/UDP b2b;branch=z9hG4bK-b2b-1",
                "From: <sip:leg1@b2b>;tag=b2b-1",
                "To: <sip:alice@x.com>",
                "Call-ID: b2b-b2b-1",
                "CSeq: 1 INVITE",
                "Max-Forwards: 70",
                "Contact: <sip:b2b>",
                "Content-Type: application/sdp",
                "Content-Length: 5",
                body="v=0\r\n",
            ),
            leg_b_in_dialog("ACK", 2, 1),
            leg_b_in_dialog("BYE", 3, 2),
        ]


class TestRegistrarWire:
    def test_register(self):
        loop, _network, client, peer = make_registrar()
        client.start()
        loop.run_until(0.01)
        assert peer.wires == [wire(*REGISTER_HEAD, "Content-Length: 0")]

    def test_register_with_credentials(self):
        loop, _network, client, peer = make_registrar(auth_username="u1",
                                                      auth_password="pw")
        client.start()
        loop.run_until(0.01)
        assert peer.wires == [wire(
            *REGISTER_HEAD,
            'Authorization: Digest username="u1", realm="repro.example.com", '
            'nonce="repro-nonce", uri="sip:carol@edge.example.net", '
            'response="10cf1b1823b32d97f5835eed8eb23051"',
            "Content-Length: 0",
        )]


# ---------------------------------------------------------------------------
# (b) response dispatch
# ---------------------------------------------------------------------------
class TestUacDispatch:
    def test_late_2xx_is_reacked_once(self):
        loop, _network, uac, peer = make_uac(hold_time=0.3)
        uac.start()
        loop.run_until(0.05)
        peer.resend_last_ok()
        loop.run_until(0.1)
        assert peer.methods() == ["INVITE", "ACK", "ACK"]
        assert peer.wires[-1] == uac_in_dialog("ACK", 3, 1)
        assert counter(uac, "acks_resent") == 1
        assert counter(uac, "late_responses") == 0

    def test_late_2xx_after_the_bye_is_acked_with_its_cseq(self):
        # RFC 3261 13.2.2.4: the ACK carries the CSeq number of the
        # INVITE the 2xx answers, not the dialog's current one.
        loop, _network, uac, peer = make_uac(
            peer_options=dict(ignore=("BYE",)))
        uac.start()
        loop.run_until(0.003)
        peer.resend_last_ok()
        loop.run_until(0.006)
        assert [f"{r.cseq.number} {r.method}" for r in peer.requests] == [
            "1 INVITE", "1 ACK", "2 BYE", "1 ACK"]
        assert peer.wires[-1] == uac_in_dialog("ACK", 4, 1)
        assert counter(uac, "acks_resent") == 1

    def test_unanswered_cancel_is_reaped_at_timer_f(self):
        loop, _network, uac, peer = make_uac(
            peer_options=dict(ring=True, ignore=("CANCEL",)),
            abandon_after=0.05)
        uac.start()
        loop.run_until(1.0)
        assert ("z9hG4bK-uac1-1", "CANCEL") in uac.client.transactions
        loop.run_until(0.05 + 64 * TIMERS.t1 + 0.01)
        assert ("z9hG4bK-uac1-1", "CANCEL") not in uac.client.transactions
        # T1 doubling to T2 until Timer F: 18 copies, 17 of them re-sent.
        assert counter(uac, "cancels_sent") == 18
        assert uac.retransmissions() == 17
        assert counter(uac, "retransmits_harvested") == 17

    def test_2xx_after_the_call_ended_is_late(self):
        loop, _network, uac, peer = make_uac()
        uac.start()
        loop.run_until(0.05)
        assert uac.calls_completed == 1
        peer.resend_last_ok()  # the BYE's 200
        peer.send_stray("uac1")
        loop.run_until(0.1)
        assert peer.methods() == ["INVITE", "ACK", "BYE"]
        assert counter(uac, "late_responses") == 2
        assert counter(uac, "acks_resent") == 0

    def test_unmatched_response_is_late(self):
        loop, _network, uac, peer = make_uac(hold_time=0.3)
        uac.start()
        loop.run_until(0.05)
        peer.send_stray("uac1")
        loop.run_until(0.1)
        assert peer.methods() == ["INVITE", "ACK"]
        assert counter(uac, "late_responses") == 1
        assert counter(uac, "acks_resent") == 0

    def test_retransmissions_are_harvested_plus_live(self):
        # The peer ignores each request's first copy, so every client
        # transaction retransmits once: INVITE, re-INVITE and BYE.
        loop, _network, uac, peer = make_uac(
            peer_options=dict(drop_first=True), max_calls=5,
            hold_time=0.3, reinvite_after=0.1)
        uac.start()
        live_seen = False
        for tick in range(10):
            # Between sends: no request is in flight at these instants.
            loop.run_until(tick * 0.1 + 0.03)
            sent = sum(counter(uac, name) for name in (
                "invites_sent", "reinvites_sent", "byes_sent"))
            started = {(r.top_via.branch, r.method) for r in peer.requests
                       if r.method != "ACK"}
            assert uac.retransmissions() == sent - len(started)
            harvested = counter(uac, "retransmits_harvested")
            live_seen |= uac.retransmissions() > harvested
        loop.run_until(2.0)
        assert live_seen
        assert uac.calls_completed == 5
        assert uac.retransmissions() == 15
        assert counter(uac, "retransmits_harvested") == 15


class TestB2buaDispatch:
    def test_late_2xx_is_reacked_once(self):
        loop, network, b2bua, peer, _caller = make_b2bua()
        network.send("cli", "b2b", leg_a("INVITE", 1))
        loop.run_until(0.01)
        peer.resend_last_ok()
        loop.run_until(0.02)
        assert peer.methods() == ["INVITE", "ACK", "ACK"]
        assert peer.wires[-1] == leg_b_in_dialog("ACK", 3, 1)
        assert counter(b2bua, "acks_resent") == 1
        assert counter(b2bua, "late_responses") == 0

    def test_unmatched_response_is_late(self):
        loop, network, b2bua, peer, _caller = make_b2bua()
        network.send("cli", "b2b", leg_a("INVITE", 1))
        loop.run_until(0.01)
        peer.send_stray("b2b")
        loop.run_until(0.02)
        assert peer.methods() == ["INVITE", "ACK"]
        assert counter(b2bua, "late_responses") == 1
        assert counter(b2bua, "acks_resent") == 0


class TestRegistrarDispatch:
    def test_final_after_its_reap_is_late(self):
        loop, _network, client, peer = make_registrar()
        client.start()
        loop.run_until(0.01)
        assert client.registers_confirmed == 1
        peer.resend_last_ok()
        loop.run_until(0.02)
        assert counter(client, "late_responses") == 1
        assert client.registers_confirmed == 1
