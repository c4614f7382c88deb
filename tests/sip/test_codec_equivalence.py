"""The one-pass codec against the one it replaced, plus the parser fuzz.

``_legacy_codec`` holds the previous ``parse_comma_separated`` /
``_split_head_body`` / ``_unfold`` / ``parse_headers`` bodies and the
Content-Length cut.  Everywhere below "same" means: the same return
value, or an exception of the same type.

Inputs: (a) every wire message ``test_torture.py`` and
``test_parser.py`` feed the parser (recorded by running them, so the
corpus grows with those files), (b) ``to_wire()`` of every message shape
the differential battery's scenario families put on the network,
(c) hypothesis-built header blocks and bodies.
"""

import functools
import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sip import parser
from repro.sip.headers import parse_comma_separated
from repro.sip.message import SipMessage
from repro.sip.parser import SipParseError, parse_headers, parse_message

from tests.engine.test_differential import SCENARIOS, _config
from tests.sip import _legacy_codec as legacy
from tests.sip import test_parser, test_torture


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type *is* the observation
        return "raised", type(exc)


def _assert_same_codec(raw):
    """Both codecs agree on ``raw`` at every stage it reaches."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            return
    raw = raw.lstrip("\r\n")
    split = parser._split_head_body(raw)
    assert split == legacy.split_head_body(raw)
    lines = split[0][1:]
    headers = _outcome(parse_headers, lines)
    assert headers == _outcome(legacy.parse_headers, lines)
    # The whole parser sits on those stages: the same headers out, a
    # header error is a parse error, and nothing else ever escapes.
    whole = _outcome(parse_message, raw)
    if headers[0] == "raised":
        assert whole == headers
    elif whole[0] == "ok":
        assert whole[1].headers == headers[1]
    else:
        assert whole[1] is SipParseError


# ---------------------------------------------------------------------------
# (a) the wire messages the existing parser batteries use
# ---------------------------------------------------------------------------

def _test_calls(owner):
    """Every non-hypothesis test of a module or instance that needs no
    fixture, as a no-argument call -- one per value when it is
    parametrized over a single name."""
    for name in sorted(dir(owner)):
        test = getattr(owner, name)
        if (not name.startswith("test_") or not callable(test)
                or getattr(test, "is_hypothesis_test", False)):
            continue
        marks = [m for m in getattr(test, "pytestmark", ())
                 if m.name == "parametrize"]
        if not marks and not inspect.signature(test).parameters:
            yield test
        elif len(marks) == 1 and "," not in marks[0].args[0]:
            for value in marks[0].args[1]:
                if isinstance(value, type(pytest.param())):
                    value, = value.values
                yield functools.partial(test, value)


def _recorded_wires(module):
    """Run ``module``'s tests with its ``parse_message`` wrapped."""
    wires = []
    real = module.parse_message

    def recording(raw):
        wires.append(raw)
        return real(raw)

    module.parse_message = recording
    try:
        owners = [module] + [
            cls() for name, cls in sorted(vars(module).items())
            if name.startswith("Test") and inspect.isclass(cls)
        ]
        for owner in owners:
            for call in _test_calls(owner):
                call()
    finally:
        module.parse_message = real
    return wires


def test_battery_wires_parse_the_same():
    wires = _recorded_wires(test_torture) + _recorded_wires(test_parser)
    assert len(wires) > 100  # the recorder really saw the batteries
    for raw in wires:
        _assert_same_codec(raw)


# ---------------------------------------------------------------------------
# (b) what the scenario families put on the wire
# ---------------------------------------------------------------------------

def _shape(message):
    kind = message.method if message.is_request else message.status
    return kind, tuple(name for name, _ in message.headers), bool(message.body)


@pytest.mark.parametrize("family", sorted(SCENARIOS))
def test_scenario_wires_parse_the_same(family):
    scenario = SCENARIOS[family](_config("reference", 1))
    seen = {}
    send = scenario.network.send

    def recording_send(src, dst, payload):
        if isinstance(payload, SipMessage):
            seen.setdefault(_shape(payload), payload.to_wire())
        return send(src, dst, payload)

    scenario.network.send = recording_send
    scenario.start()
    scenario.loop.run_until(1.0)
    assert len(seen) >= 6  # at least the six messages of one call
    for raw in seen.values():
        _assert_same_codec(raw)
        again = parse_message(raw)
        assert again.to_wire() == raw


# ---------------------------------------------------------------------------
# (c) generated header blocks and bodies
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from([
    "Via", "v", "VIA", "Route", "Record-Route", "Contact", "m", "From", "f",
    "To", "Call-ID", "i", "CSeq", "Content-Length", "l", "Subject",
    "X-Servartuka-State", "x-odd--name", "", " Via ", "Via\t", "\x0bVia",
])
_VALUE_PIECES = st.sampled_from([
    "SIP/2.0/UDP a.example.com;branch=z9hG4bK1", "<sip:p1;lr>", "sip:u@h",
    '"Doe, John" <sip:j@h>', '"unbalanced, quote', "<sip:a,b@h>", "<<x>,y>",
    ">,<", ",", ", ", ",,", ";tag=1", "a:b", " ", "\t", "", "é", "0", "299",
    "!!garbage!!",
])
_VALUES = st.lists(_VALUE_PIECES, max_size=4).map("".join)
_HEADER_LINES = st.one_of(
    st.tuples(_NAMES, st.sampled_from([":", ": ", " : ", ":\t"]), _VALUES)
    .map("".join),
    _VALUES.map(lambda v: " " + v),        # folded continuation
    _VALUES.map(lambda v: "\t" + v),
    st.sampled_from(["", " ", "\r", "no colon here", "\x0b", " "]),
)
_LINE_ENDS = st.sampled_from(["\r\n", "\n"])
_STARTS = st.sampled_from([
    "INVITE sip:burdell@cc.gatech.edu SIP/2.0", "SIP/2.0 200 OK",
    "SIP/2.0 180", "SIP/2.0 999 Nope", "REGISTER sip:h SIP/2.0",
])
_BODIES = st.text(alphabet="ab\r\n é€\U0001f600", max_size=12)


@st.composite
def _messages(draw):
    raw = draw(st.sampled_from(["", "\r\n", "\n\r\n\r\n"]))  # keep-alives
    raw += draw(_STARTS) + draw(_LINE_ENDS)
    for line in draw(st.lists(_HEADER_LINES, max_size=8)):
        raw += line + draw(_LINE_ENDS)
    body = draw(_BODIES)
    if draw(st.booleans()):
        octets = len(body.encode("utf-8"))
        declared = draw(st.integers(min_value=0, max_value=octets + 1))
        raw += f"Content-Length: {declared}" + draw(_LINE_ENDS)
    if draw(st.booleans()):
        raw += draw(_LINE_ENDS) + body
    return raw


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_HEADER_LINES, max_size=8))
def test_generated_header_lines_parse_the_same(lines):
    assert _outcome(parse_headers, lines) == _outcome(legacy.parse_headers, lines)


@settings(max_examples=400, deadline=None)
@given(raw=_messages())
def test_generated_messages_parse_the_same(raw):
    _assert_same_codec(raw)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(_VALUES, st.text(alphabet='ab ,"<>\t', max_size=24)))
def test_comma_split_is_the_same(value):
    assert parse_comma_separated(value) == legacy.parse_comma_separated(value)


@settings(max_examples=300, deadline=None)
@given(body=_BODIES, declared=st.integers(min_value=0, max_value=40))
@example(body="é", declared=1)          # cut mid-character
@example(body="abc", declared=2)        # ASCII, trimmed
@example(body="a€", declared=9)         # truncated
def test_content_length_cut_is_the_same(body, declared):
    raw = f"SIP/2.0 200 OK\r\nContent-Length: {declared}\r\n\r\n{body}"
    new = _outcome(lambda: parse_message(raw).body)
    assert new == _outcome(legacy.cut_body, body, declared)


# ---------------------------------------------------------------------------
# Fuzz: anything in, a message or SipParseError out
# ---------------------------------------------------------------------------

# What a load generator really sends: a hard-coded Content-Length that
# does not match the body, and bare-LF line ends from a triple-quoted
# string (SNIPPETS.md snippet 1) ...
LOADTEST_INVITE = """INVITE sip:1001@sipserver SIP/2.0
Via: SIP/2.0/UDP 127.0.0.1:5080;branch=z9hG4bKabcdefghij
Max-Forwards: 70
To: <sip:1001@sipserver>
From: <sip:1000@sipserver>;tag=abcdefgh
Call-ID: 0123456789abcdef@loadtest
CSeq: 1 INVITE
Contact: <sip:1000@127.0.0.1:5080>
Content-Type: application/sdp
Content-Length: 299
User-Agent: SIP-LoadTester/1.0

v=0
o=- 1700000000 1700000000 IN IP4 127.0.0.1
s=Load Test Session
c=IN IP4 127.0.0.1
t=0 0
m=audio 5004 RTP/AVP 0 8
a=rtpmap:0 PCMU/8000
a=rtpmap:8 PCMA/8000
a=sendrecv
"""
# ... and the un-REGISTER that ends a load run (snippet 3).
UNREGISTER = (
    "REGISTER sip:localhost:9999 SIP/2.0\r\n"
    "Via: SIP/2.0/TCP 127.0.0.1:40000;branch=z9hG4bKreg1\r\n"
    "From: <sip:302108810000@localhost>;tag=r1\r\n"
    "To: <sip:302108810000@localhost>\r\n"
    "Call-ID: reg-302108810000@127.0.0.1\r\n"
    "CSeq: 2 REGISTER\r\n"
    "Contact: <sip:302108810000@127.0.0.1:40000;transport=tcp>\r\n"
    "Expires: 0\r\n"
    "Content-Length: 0\r\n\r\n"
)
SEEDS = (LOADTEST_INVITE, UNREGISTER)


def _parses_or_rejects(raw):
    try:
        message = parse_message(raw)
    except SipParseError:
        return None
    assert message.is_request or message.is_response
    return message


def test_seed_messages():
    # 299 declared, fewer octets present: a clean rejection, not a slice.
    assert _parses_or_rejects(LOADTEST_INVITE) is None
    honest = LOADTEST_INVITE.replace("Content-Length: 299\n", "")
    assert _parses_or_rejects(honest).body.startswith("v=0\n")
    unregister = _parses_or_rejects(UNREGISTER)
    assert unregister.method == "REGISTER" and unregister.get("Expires") == "0"


_ANY_TEXT = st.text(st.characters(), max_size=200)  # surrogates included


@settings(max_examples=500, deadline=None)
@given(raw=st.one_of(_ANY_TEXT, st.binary(max_size=200), _messages()))
@example(raw="SIP/2.0 200 OK\r\nContent-Length: 1\r\n\r\n\ud800")
@example(raw="SIP/2.0 200 OK\r\nContent-Length: " + "9" * 5000 + "\r\n\r\n")
def test_fuzz_anything_in(raw):
    _parses_or_rejects(raw)


@settings(max_examples=500, deadline=None)
@given(
    seed=st.sampled_from(SEEDS),
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=700),
                  st.integers(min_value=0, max_value=8),
                  st.one_of(_ANY_TEXT.map(lambda t: t[:4]), _VALUE_PIECES,
                            st.sampled_from(["\r\n", "\n", "\r\n\r\n", ":", ","]))),
        max_size=4),
    as_bytes=st.booleans(),
)
def test_fuzz_mutated_seeds(seed, edits, as_bytes):
    raw = seed
    for at, drop, insert in edits:
        raw = raw[:at] + insert + raw[at + drop:]
    if as_bytes:
        raw = raw.encode("utf-8", errors="surrogatepass")
    _parses_or_rejects(raw)
