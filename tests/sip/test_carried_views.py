"""Views a sender hands over equal what parsing the header would give.

No module keeps a parsed Via, CSeq or URI: a message's parsed views are
its own, and where a node already holds the value a header was rendered
from it stores that object as the view (``push_via``, ``forward_clone``,
``SipRequest.build``, ``SipResponse.for_request``, ``pop_via`` keeping
the rest of the stack).  Over generated request-forward / response-return
hop sequences on both rungs -- retransmissions, ``100 Trying`` and the
stored-response replay included -- every view a message holds, and every
view it is asked for, must equal field by field a fresh parse of its raw
headers.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.harness.runner import run_scenario
from repro.sip.headers import CSeq, NameAddr, Via
from repro.sip.message import (
    SipRequest,
    SipResponse,
    forward_clone,
    set_engine_mode,
)
from repro.sip.parser import parse_message
from repro.sip.uri import SipUri, parse_uri

ENGINES = ("reference", "turbo")
DESTINATION = "sip:service@far.example.net"


def _fields(value):
    """A parsed value as nested plain data, every slot included."""
    if isinstance(value, (Via, NameAddr, CSeq, SipUri)):
        return (type(value).__name__,) + tuple(
            _fields(getattr(value, slot)) for slot in type(value).__slots__
        )
    if isinstance(value, dict):
        return tuple((key, _fields(item)) for key, item in value.items())
    if isinstance(value, list):
        return [_fields(item) for item in value]
    return value


def _fresh(message, key):
    """What parsing ``message``'s raw headers gives for view ``key``."""
    if key == "Via":
        return [Via.parse(raw) for raw in message.get_all("Via")]
    if key == "_top_via":
        raw = message.get("Via")
        return Via.parse(raw) if raw is not None else None
    if key == "CSeq":
        return CSeq.parse(message.get("CSeq"))
    return NameAddr.parse(message.get(key))


_STORED = ("Via", "_top_via", "CSeq", "To", "From")
_ASKED = {"top_via": "_top_via", "vias": "Via", "cseq": "CSeq", "to": "To",
          "from_": "From"}


def check(message, peek):
    """Every stored view matches a fresh parse; with ``peek``, so does
    every view asked for (which stores it, as a node reading it would)."""
    for key in _STORED:
        if key in message._cache:
            assert _fields(message._cache[key]) == _fields(
                _fresh(message, key)), key
    if peek:
        for attribute, key in _ASKED.items():
            assert _fields(getattr(message, attribute)) == _fields(
                _fresh(message, key)), attribute


def _request(method, parsed, to_tag):
    destination = parse_uri(DESTINATION) if parsed else DESTINATION
    origin = "sip:user7@clients.example.com"
    request = SipRequest.build(
        method, destination, parse_uri(origin) if parsed else origin,
        destination, "call-7", 2 if method == "BYE" else 1,
        from_tag="uac-7", to_tag=to_tag,
    )
    request.push_via(Via("uac", branch="z9hG4bK-uac-7"))
    return request


_hop = st.fixed_dictionaries({
    "record_route": st.booleans(),
    "marked": st.booleans(),
    "retransmit": st.booleans(),
    "trying": st.booleans(),
    "peek": st.booleans(),
})


@settings(max_examples=60, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    method=st.sampled_from(["INVITE", "ACK", "BYE", "CANCEL"]),
    parsed=st.booleans(),
    in_dialog=st.booleans(),
    hops=st.lists(_hop, min_size=1, max_size=4),
    status=st.sampled_from([100, 180, 200, 486, 503]),
    answer_tag=st.booleans(),
    peek_back=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_views_equal_a_fresh_parse_at_every_hop(
    engine, method, parsed, in_dialog, hops, status, answer_tag, peek_back,
):
    set_engine_mode(engine)
    message = _request(method, parsed, "uas-1" if in_dialog else None)
    check(message, hops[0]["peek"])
    received = []  # (proxy name, the request it received)
    for index, hop in enumerate(hops):
        name = f"P{index + 1}"
        if hop["retransmit"]:
            message = message.copy()  # the sender's retransmission
        check(message, hop["peek"])
        received.append((name, message))
        if hop["trying"]:
            # The 100 Trying goes back to the previous hop, which pops
            # its own Via and relays the rest.
            trying = SipResponse.for_request(message, 100)
            check(trying, hop["peek"])
            relayed = trying.copy()
            relayed.pop_via()
            check(relayed, True)
        message = forward_clone(
            message, name, f"z9hG4bK-{name}-1", f"<sip:{name};lr>",
            ("X-Servartuka-Auth", "done") if hop["marked"] else None,
            ("X-Servartuka-State", "held") if hop["marked"] else None,
            hop["record_route"], "69",
        )
        check(message, False)
    check(message, hops[-1]["peek"])  # as the UAS receives it

    response = SipResponse.for_request(
        message, status, to_tag="uas-1" if answer_tag else None)
    check(response, peek_back[0])
    for depth, (name, _request_seen) in enumerate(reversed(received)):
        peek = peek_back[(depth + 1) % len(peek_back)]
        forwarded = response.copy()
        own = forwarded.pop_via()
        assert own.host == name
        check(forwarded, peek)
        stored = forwarded.to_wire()  # what a lingering proxy keeps
        replay = parse_message(stored)
        assert replay._cache == {}
        assert replay.to_wire() == stored
        check(replay, True)
        response = forwarded
    assert response.top_via.host == "uac"


def _sip_module_containers():
    """Size of every module-level dict or list under ``repro.sip``."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name == "repro.sip" or name.startswith("repro.sip."):
            for attr, value in vars(module).items():
                if not attr.startswith("__") and isinstance(value, (dict, list)):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_a_second_run_grows_no_module_table():
    """Nothing parsed outlives its run: once the canonical-name memo is
    warm, a longer second run (fresh per-call From URIs and Via
    branches) leaves every module-level container as it found it."""

    def run(duration):
        scenario = api.make_scenario("n_series", n=2, rate=10_000.0,
                                     engine="turbo", seed=5)
        run_scenario(scenario, warmup=0.1, duration=duration, drain=0.2)
        return sum(server.calls_completed for server in scenario.servers)

    first = run(0.2)
    before = _sip_module_containers()
    assert "repro.sip.headers._CANON_CACHE" in before  # the scan sees it
    assert run(0.6) > first
    assert _sip_module_containers() == before


@pytest.fixture
def parses(monkeypatch):
    """Counts of ``parse_uri`` (every module's reference to it) and
    ``CSeq.parse`` calls from here on."""
    counts = {"uri": 0, "cseq": 0}
    real_uri, real_cseq = parse_uri, CSeq.parse.__func__

    def counted_uri(text):
        counts["uri"] += 1
        return real_uri(text)

    def counted_cseq(cls, raw):
        counts["cseq"] += 1
        return real_cseq(cls, raw)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse_uri", None) is real_uri:
            monkeypatch.setattr(module, "parse_uri", counted_uri)
    monkeypatch.setattr(CSeq, "parse", classmethod(counted_cseq))
    return counts


def _calls_parsing(topology, parses, **kwargs):
    """Per-call parse counts over a turbo run of ``topology`` shaped like
    the benchmark's ``chain_steady`` (built before counting starts)."""
    scenario = api.make_scenario(topology, rate=10_000.0, engine="turbo",
                                 seed=5, **kwargs)
    parses.update(uri=0, cseq=0)
    run_scenario(scenario, warmup=0.25, duration=0.5, drain=0.5)
    calls = sum(server.calls_completed for server in scenario.servers)
    assert calls > 100
    return parses["uri"] / calls, parses["cseq"] / calls


def test_a_chain_call_parses_no_cseq(parses):
    """Every request is built with its CSeq view (the ACK included), and
    every response and copy carries it on."""
    uris, cseqs = _calls_parsing("n_series", parses, n=2)
    assert cseqs == 0
    assert uris == 1  # the call's From, once


def test_a_b2bua_call_parses_each_leg_b_uri_once(parses):
    """Leg B's destination and From are parsed when the call arrives;
    its INVITE, ACK and BYE reuse them."""
    uris, cseqs = _calls_parsing("b2bua_chain", parses)
    assert cseqs == 0
    assert uris <= 3  # the UAC's From, leg B's destination and From
