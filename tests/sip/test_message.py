"""Tests for the SIP message model."""

import pytest

from repro.sip.headers import SipHeaderError, Via
from repro.sip.message import SipRequest, SipResponse, set_engine_mode
from repro.sip.parser import parse_message
from repro.sip.uri import parse_uri


def make_invite(**kwargs):
    defaults = dict(
        method="INVITE",
        uri="sip:burdell@cc.gatech.edu",
        from_addr="sip:hal@us.ibm.com",
        to_addr="sip:burdell@cc.gatech.edu",
        call_id="call-1@uac",
        cseq=1,
        from_tag="ft1",
    )
    defaults.update(kwargs)
    return SipRequest.build(**defaults)


class TestHeaderAccess:
    def test_get_set(self):
        req = make_invite()
        req.set("User-Agent", "repro/1.0")
        assert req.get("user-agent") == "repro/1.0"

    def test_get_missing_is_none(self):
        assert make_invite().get("Contact") is None

    def test_set_replaces_all(self):
        req = make_invite()
        req.add("Route", "<sip:p1;lr>")
        req.add("Route", "<sip:p2;lr>")
        req.set("Route", "<sip:p3;lr>")
        assert req.get_all("Route") == ["<sip:p3;lr>"]

    def test_add_at_top(self):
        req = make_invite()
        req.add("Record-Route", "<sip:p1;lr>")
        req.add("Record-Route", "<sip:p2;lr>", at_top=True)
        assert req.get_all("Record-Route") == ["<sip:p2;lr>", "<sip:p1;lr>"]

    def test_remove(self):
        req = make_invite()
        req.add("Route", "<sip:p1;lr>")
        req.add("Route", "<sip:p2;lr>")
        assert req.remove("Route") == 2
        assert not req.has("Route")

    def test_compact_name_resolution(self):
        req = make_invite()
        assert req.get("i") == "call-1@uac"


class TestStructuredViews:
    def test_from_to_cseq(self):
        req = make_invite()
        assert req.from_.uri.user == "hal"
        assert req.from_.tag == "ft1"
        assert req.to.tag is None
        assert req.cseq.number == 1
        assert req.cseq.method == "INVITE"

    def test_missing_headers_raise(self):
        req = SipRequest("OPTIONS", parse_uri("sip:x@y.com"))
        with pytest.raises(SipHeaderError):
            _ = req.from_
        with pytest.raises(SipHeaderError):
            _ = req.cseq
        with pytest.raises(SipHeaderError):
            _ = req.call_id

    def test_lazy_parse_counting(self):
        req = make_invite()
        assert "From" not in req._cache  # nothing parsed until asked
        first = req.from_
        assert req._cache["From"] is first
        assert req.from_ is first  # cached: parsed once

    def test_cache_invalidation_on_set(self):
        req = make_invite()
        _ = req.from_
        req.set("From", "<sip:other@x.com>;tag=zz")
        assert req.from_.uri.user == "other"


class TestViaStack:
    def test_push_pop_order(self):
        req = make_invite()
        req.push_via(Via("uac", branch="z9hG4bK1"))
        req.push_via(Via("p1", branch="z9hG4bK2"))
        assert req.top_via.host == "p1"
        popped = req.pop_via()
        assert popped.host == "p1"
        assert req.top_via.host == "uac"

    def test_pop_empty(self):
        assert make_invite().pop_via() is None

    def test_vias_listed_top_first(self):
        req = make_invite()
        req.push_via(Via("a", branch="z9hG4bKa"))
        req.push_via(Via("b", branch="z9hG4bKb"))
        assert [v.host for v in req.vias] == ["b", "a"]


    @pytest.mark.parametrize("engine", ["reference", "turbo"])
    def test_top_via_parses_only_the_top_on_both_rungs(self, engine):
        """A malformed Via lower in the stack is the full-stack view's
        problem; the rungs used to disagree (reference parsed it all)."""
        set_engine_mode(engine)
        msg = parse_message(
            "INVITE sip:burdell@cc.gatech.edu SIP/2.0\r\n"
            "Via: SIP/2.0/UDP a;branch=z9hG4bKx, !!garbage!!\r\n"
            "CSeq: 1 INVITE\r\n\r\n"
        )
        assert str(msg.top_via) == "SIP/2.0/UDP a;branch=z9hG4bKx"
        assert msg.transaction_key() == ("z9hG4bKx", "a", "INVITE")
        with pytest.raises(SipHeaderError):
            msg.vias
        assert msg.copy().top_via == msg.top_via

    @pytest.mark.parametrize("engine", ["reference", "turbo"])
    def test_cached_key_follows_via_and_cseq_edits(self, engine):
        set_engine_mode(engine)
        req = make_invite()
        req.push_via(Via("uac", branch="z9hG4bK1"))
        assert req.transaction_key() == ("z9hG4bK1", "uac", "INVITE")
        req.push_via(Via("p1", branch="z9hG4bK2"))
        assert req.transaction_key() == ("z9hG4bK2", "p1", "INVITE")
        req.set("CSeq", "1 CANCEL")
        assert req.transaction_key() == ("z9hG4bK2", "p1", "INVITE")
        req.set("CSeq", "2 BYE")
        assert req.transaction_key() == ("z9hG4bK2", "p1", "BYE")
        req.pop_via()
        assert req.transaction_key() == ("z9hG4bK1", "uac", "BYE")


class TestTransactionKey:
    def test_key_from_branch(self):
        req = make_invite()
        req.push_via(Via("uac", branch="z9hG4bKq"))
        assert req.transaction_key() == ("z9hG4bKq", "uac", "INVITE")

    def test_ack_maps_to_invite(self):
        req = make_invite(method="ACK")
        req.set("CSeq", "1 ACK")
        req.push_via(Via("uac", branch="z9hG4bKq"))
        assert req.transaction_key()[2] == "INVITE"

    def test_cancel_maps_to_invite(self):
        req = make_invite(method="CANCEL")
        req.set("CSeq", "1 CANCEL")
        req.push_via(Via("uac", branch="z9hG4bKq"))
        assert req.transaction_key()[2] == "INVITE"

    def test_requires_branch(self):
        req = make_invite()
        req.add("Via", "SIP/2.0/UDP uac")
        with pytest.raises(SipHeaderError):
            req.transaction_key()

    def test_bye_distinct_from_invite(self):
        invite = make_invite()
        invite.push_via(Via("uac", branch="z9hG4bKsame"))
        bye = make_invite(method="BYE", cseq=2)
        bye.set("CSeq", "2 BYE")
        bye.push_via(Via("uac", branch="z9hG4bKsame"))
        assert invite.transaction_key() != bye.transaction_key()


class TestCopy:
    def test_copy_is_independent(self):
        req = make_invite()
        clone = req.copy()
        clone.set("Max-Forwards", "10")
        assert req.get("Max-Forwards") == "70"

    def test_copy_preserves_body(self):
        req = make_invite(body="v=0")
        assert req.copy().body == "v=0"


class TestMaxForwards:
    def test_decrement(self):
        req = make_invite()
        assert req.decrement_max_forwards() == 69
        assert req.get("Max-Forwards") == "69"

    def test_read_leaves_the_message_alone(self):
        req = make_invite()
        before = list(req.headers)
        assert req.max_forwards() == 70
        assert req.headers == before

    def test_read_raises_like_decrement(self):
        req = make_invite()
        req.set("Max-Forwards", "many")
        with pytest.raises(SipHeaderError):
            req.max_forwards()

    def test_missing_raises(self):
        req = make_invite()
        req.remove("Max-Forwards")
        with pytest.raises(SipHeaderError):
            req.decrement_max_forwards()

    def test_garbage_raises(self):
        req = make_invite()
        req.set("Max-Forwards", "many")
        with pytest.raises(SipHeaderError):
            req.decrement_max_forwards()


class TestResponses:
    def test_for_request_copies_identity(self):
        req = make_invite()
        req.push_via(Via("uac", branch="z9hG4bK1"))
        resp = SipResponse.for_request(req, 180, to_tag="tt1")
        assert resp.status == 180
        assert resp.reason == "Ringing"
        assert resp.call_id == req.call_id
        assert resp.cseq == req.cseq
        assert resp.to.tag == "tt1"
        assert resp.top_via.branch == "z9hG4bK1"

    def test_for_request_keeps_existing_to_tag(self):
        req = make_invite(to_tag="existing")
        resp = SipResponse.for_request(req, 200, to_tag="new")
        assert resp.to.tag == "existing"

    def test_record_route_mirrored(self):
        req = make_invite()
        req.add("Record-Route", "<sip:p1;lr>")
        resp = SipResponse.for_request(req, 200)
        assert resp.get_all("Record-Route") == ["<sip:p1;lr>"]

    def test_classification_flags(self):
        assert SipResponse(100).is_provisional
        assert not SipResponse(100).is_final
        assert SipResponse(200).is_success
        assert SipResponse(500).is_final
        assert not SipResponse(500).is_success

    def test_default_reason_phrases(self):
        assert SipResponse(503).reason == "Service Unavailable"
        assert SipResponse(699).reason == "Unknown"

    def test_status_range_validated(self):
        with pytest.raises(ValueError):
            SipResponse(99)


class TestWireFormat:
    def test_request_start_line(self):
        req = make_invite()
        wire = req.to_wire()
        assert wire.startswith("INVITE sip:burdell@cc.gatech.edu SIP/2.0\r\n")
        assert "Content-Length: 0" in wire

    def test_response_start_line(self):
        resp = SipResponse(200)
        assert resp.to_wire().startswith("SIP/2.0 200 OK\r\n")

    def test_body_and_content_length(self):
        req = make_invite(body="v=0\r\n")
        wire = req.to_wire()
        assert wire.endswith("\r\n\r\nv=0\r\n")
        assert f"Content-Length: {len('v=0') + 2}" in wire

    def test_size_bytes_positive(self):
        assert make_invite().size_bytes() > 100
