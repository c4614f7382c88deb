"""Tests for wire-format parsing, including round-trip properties."""

import pytest
from hypothesis import given, strategies as st

from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.parser import SipParseError, parse_message

RAW_INVITE = (
    "INVITE sip:burdell@cc.gatech.edu SIP/2.0\r\n"
    "Via: SIP/2.0/UDP p1.example.com;branch=z9hG4bK2\r\n"
    "Via: SIP/2.0/UDP uac.example.com;branch=z9hG4bK1\r\n"
    "From: \"Hal\" <sip:hal@us.ibm.com>;tag=a1\r\n"
    "To: <sip:burdell@cc.gatech.edu>\r\n"
    "Call-ID: abc123@uac\r\n"
    "CSeq: 1 INVITE\r\n"
    "Max-Forwards: 69\r\n"
    "Content-Length: 0\r\n"
    "\r\n"
)


class TestRequestParsing:
    def test_basic_invite(self):
        msg = parse_message(RAW_INVITE)
        assert isinstance(msg, SipRequest)
        assert msg.method == "INVITE"
        assert msg.uri.user == "burdell"
        assert len(msg.vias) == 2
        assert msg.top_via.host == "p1.example.com"
        assert msg.from_.display == "Hal"
        assert msg.cseq.number == 1

    def test_bytes_input(self):
        msg = parse_message(RAW_INVITE.encode("utf-8"))
        assert msg.method == "INVITE"

    def test_compact_header_names(self):
        raw = (
            "OPTIONS sip:x@y.com SIP/2.0\r\n"
            "v: SIP/2.0/UDP h;branch=z9hG4bK0\r\n"
            "f: <sip:a@b.com>;tag=1\r\nt: <sip:x@y.com>\r\n"
            "i: cid1\r\nCSeq: 7 OPTIONS\r\nl: 0\r\n\r\n"
        )
        msg = parse_message(raw)
        assert msg.call_id == "cid1"
        assert msg.get("Content-Length") == "0"

    def test_header_folding(self):
        raw = (
            "OPTIONS sip:x@y.com SIP/2.0\r\n"
            "Subject: first part\r\n continued here\r\n"
            "Call-ID: c\r\nCSeq: 1 OPTIONS\r\n"
            "From: <sip:a@b.c>;tag=1\r\nTo: <sip:x@y.com>\r\n\r\n"
        )
        msg = parse_message(raw)
        assert msg.get("Subject") == "first part continued here"

    def test_comma_separated_vias_split(self):
        raw = (
            "OPTIONS sip:x@y.com SIP/2.0\r\n"
            "Via: SIP/2.0/UDP a;branch=z9hG4bK1, SIP/2.0/UDP b;branch=z9hG4bK2\r\n"
            "Call-ID: c\r\nCSeq: 1 OPTIONS\r\n"
            "From: <sip:a@b.c>;tag=1\r\nTo: <sip:x@y.com>\r\n\r\n"
        )
        msg = parse_message(raw)
        assert [v.host for v in msg.vias] == ["a", "b"]

    def test_body_extraction(self):
        raw = (
            "INVITE sip:x@y.com SIP/2.0\r\n"
            "Call-ID: c\r\nCSeq: 1 INVITE\r\n"
            "From: <sip:a@b.c>;tag=1\r\nTo: <sip:x@y.com>\r\n"
            "Content-Length: 4\r\n\r\nv=0\n"
        )
        assert parse_message(raw).body == "v=0\n"

    def test_truncated_body_rejected(self):
        raw = (
            "INVITE sip:x@y.com SIP/2.0\r\n"
            "Content-Length: 100\r\n\r\nshort"
        )
        with pytest.raises(SipParseError):
            parse_message(raw)


class TestResponseParsing:
    def test_basic_response(self):
        raw = (
            "SIP/2.0 200 OK\r\n"
            "Via: SIP/2.0/UDP uac;branch=z9hG4bK1\r\n"
            "From: <sip:a@b.c>;tag=1\r\nTo: <sip:x@y.com>;tag=2\r\n"
            "Call-ID: c\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n"
        )
        msg = parse_message(raw)
        assert isinstance(msg, SipResponse)
        assert msg.status == 200
        assert msg.reason == "OK"

    def test_multiword_reason(self):
        raw = "SIP/2.0 500 Server Internal Error\r\nContent-Length: 0\r\n\r\n"
        msg = parse_message(raw)
        assert msg.reason == "Server Internal Error"


class TestErrors:
    @pytest.mark.parametrize(
        "raw",
        [
            "",
            "   \r\n",
            "INVITE sip:x@y.com\r\n\r\n",              # missing version
            "INVITE sip:x@y.com HTTP/1.1\r\n\r\n",     # wrong version
            "SIP/2.0 abc OK\r\n\r\n",                  # bad status
            "INVITE notauri SIP/2.0\r\n\r\n",          # bad URI
            "INVITE sip:x@y.com SIP/2.0\r\nNoColonHere\r\n\r\n",
            "INVITE sip:x@y.com SIP/2.0\r\n badfold: x\r\n\r\n",
            "INVITE sip:x@y.com SIP/2.0\r\nContent-Length: abc\r\n\r\n",
        ],
    )
    def test_rejects_garbage(self, raw):
        with pytest.raises(SipParseError):
            parse_message(raw)


    @pytest.mark.parametrize(
        "start",
        [
            "SIP/2.0 999 Nope",     # outside 100-699
            "SIP/2.0 99 Low",
            "SIP/2.0 700 High",
            "SIP/2.0 2_00 OK",      # int() would read these three as 200
            "SIP/2.0 +200 OK",
            "SIP/2.0 \u0662\u0660\u0660 OK",
            "SIP/2.0 -200 OK",
        ],
    )
    def test_status_code_is_three_ascii_digits_in_range(self, start):
        with pytest.raises(SipParseError, match="status"):
            parse_message(start + "\r\nContent-Length: 0\r\n\r\n")

    @pytest.mark.parametrize(
        "declared",
        ["1_0", "+3", "\u0663", "3 0", "0x3", "3.0", "", "-0",
         pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_content_length_is_ascii_digits(self, declared):
        raw = f"SIP/2.0 200 OK\r\nContent-Length: {declared}\r\n\r\n0123456789"
        with pytest.raises(SipParseError, match="Content-Length"):
            parse_message(raw)

    def test_every_error_is_one_line(self):
        for raw in ("SIP/2.0 999 Nope\r\n\r\n",
                    "SIP/2.0 200 OK\r\nContent-Length: 1_0\r\n\r\n0123456789"):
            with pytest.raises(SipParseError) as caught:
                parse_message(raw)
            assert "\n" not in str(caught.value)


class TestRobustness:
    """Hostile input must fail *cleanly*: SipParseError or a message,
    never an unrelated exception -- a proxy parses whatever the network
    delivers."""

    @given(raw=st.text(max_size=300))
    def test_arbitrary_text_never_crashes(self, raw):
        try:
            message = parse_message(raw)
        except SipParseError:
            return
        assert message.is_request or message.is_response

    @given(raw=st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, raw):
        try:
            message = parse_message(raw)
        except SipParseError:
            return
        assert message.is_request or message.is_response

    @given(
        prefix=st.integers(min_value=0, max_value=len(RAW_INVITE)),
    )
    def test_truncated_real_message_never_crashes(self, prefix):
        try:
            parse_message(RAW_INVITE[:prefix])
        except SipParseError:
            pass

    @given(
        index=st.integers(min_value=0, max_value=len(RAW_INVITE) - 1),
        junk=st.characters(blacklist_categories=("Cs",)),
    )
    def test_single_byte_corruption_never_crashes(self, index, junk):
        corrupted = RAW_INVITE[:index] + junk + RAW_INVITE[index + 1:]
        try:
            parse_message(corrupted)
        except SipParseError:
            pass


class TestRoundTrip:
    def test_request_round_trip(self):
        msg = parse_message(RAW_INVITE)
        again = parse_message(msg.to_wire())
        assert again.method == msg.method
        assert again.headers == msg.headers
        assert str(again.uri) == str(msg.uri)

    def test_response_round_trip(self):
        req = parse_message(RAW_INVITE)
        resp = SipResponse.for_request(req, 180, to_tag="t9")
        again = parse_message(resp.to_wire())
        assert again.status == 180
        assert again.to.tag == "t9"
        assert [str(v) for v in again.vias] == [str(v) for v in resp.vias]

    @given(
        method=st.sampled_from(["INVITE", "BYE", "OPTIONS", "REGISTER"]),
        user=st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
        host=st.from_regex(r"[a-z][a-z0-9]{0,6}\.[a-z]{2,4}", fullmatch=True),
        cseq=st.integers(min_value=1, max_value=2 ** 31),
        n_vias=st.integers(min_value=1, max_value=5),
        body=st.text(
            alphabet=st.sampled_from("abcdefgh =\n0123456789"), max_size=64
        ),
    )
    def test_property_round_trip(self, method, user, host, cseq, n_vias, body):
        request = SipRequest.build(
            method,
            uri=f"sip:{user}@{host}",
            from_addr=f"sip:caller@{host}",
            to_addr=f"sip:{user}@{host}",
            call_id=f"cid-{cseq}",
            cseq=cseq,
            from_tag="ft",
            body=body,
        )
        for index in range(n_vias):
            request.push_via(Via(f"hop{index}", branch=f"z9hG4bK{index}"))
        reparsed = parse_message(request.to_wire())
        assert reparsed.method == method
        assert reparsed.cseq.number == cseq
        assert reparsed.body == body
        assert [v.branch for v in reparsed.vias] == [
            v.branch for v in request.vias
        ]
        # Second round trip must be a fixpoint.
        assert parse_message(reparsed.to_wire()).to_wire() == reparsed.to_wire()
