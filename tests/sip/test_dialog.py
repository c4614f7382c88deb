"""Tests for dialog identification, the UA's dialog and the proxy's
dialog table."""

import pytest

from repro.sip.dialog import Dialog, DialogId, DialogStore
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.uri import parse_uri


def make_request(method="INVITE", from_tag="ft", to_tag=None):
    request = SipRequest.build(
        method,
        uri="sip:u@example.com",
        from_addr="sip:caller@example.com",
        to_addr="sip:u@example.com",
        call_id="dlg-1",
        cseq=1,
        from_tag=from_tag,
        to_tag=to_tag,
    )
    request.push_via(Via("uac", branch="z9hG4bKd"))
    return request


class TestDialogId:
    def test_mirrored_ids_equal(self):
        caller = DialogId("c1", "ft", "tt")
        callee = DialogId("c1", "tt", "ft")
        assert caller == callee
        assert hash(caller) == hash(callee)

    def test_different_call_ids_differ(self):
        assert DialogId("c1", "a", "b") != DialogId("c2", "a", "b")

    def test_from_message_orientations(self):
        request = make_request(to_tag="tt")
        local = DialogId.from_message(request, local_is_from=True)
        remote = DialogId.from_message(request, local_is_from=False)
        assert local.local_tag == "ft" and local.remote_tag == "tt"
        assert remote.local_tag == "tt" and remote.remote_tag == "ft"
        assert local == remote  # normalized

    def test_none_tags_handled(self):
        assert DialogId("c", None, "x") == DialogId("c", "x", None)


class TestUaDialog:
    def make_dialog(self):
        return Dialog("uac", "dlg-1", parse_uri("sip:caller@example.com"),
                      "ft", parse_uri("sip:u@example.com"))

    def test_confirm_learns_tag_and_route_set(self):
        dialog = self.make_dialog()
        ok = SipResponse.for_request(make_request(), 200, to_tag="tt")
        ok.add("Record-Route", "<sip:p1;lr>")
        dialog.confirm(ok)
        assert dialog.remote_tag == "tt"
        assert dialog.route_set == ["<sip:p1;lr>"]

    def test_request_carries_the_dialog(self):
        dialog = self.make_dialog()
        dialog.remote_tag, dialog.route_set, dialog.cseq = "tt", ["<sip:p1;lr>"], 3
        bye = dialog.request("BYE", "z9hG4bKb")
        assert (bye.method, bye.cseq.number, bye.to.tag) == ("BYE", 3, "tt")
        assert bye.get_all("Route") == ["<sip:p1;lr>"]
        assert bye.top_via.branch == "z9hG4bKb"
        assert bye.get("Contact") is None

    def test_invite_carries_contact_and_sdp_type(self):
        invite = self.make_dialog().request("INVITE", "z9hG4bKi", body="v=0")
        assert invite.get("Contact") == "<sip:uac>"
        assert invite.get("Content-Type") == "application/sdp"
        assert invite.to.tag is None


class TestDialogStore:
    def test_create_and_find(self):
        store = DialogStore()
        did = DialogId("c1", "a", "b")
        store.create(did)
        assert store.find(did) is did
        assert store.find(DialogId("c1", "b", "a")) is did  # mirrored

    def test_duplicate_create_rejected(self):
        store = DialogStore()
        store.create(DialogId("c1", "a", "b"))
        with pytest.raises(ValueError):
            store.create(DialogId("c1", "b", "a"))

    def test_find_by_call_id(self):
        store = DialogStore()
        did = DialogId("c1", "a", "b")
        store.create(did)
        assert store.find_by_call_id("c1") is did
        assert store.find_by_call_id("nope") is None

    def test_remove(self):
        store = DialogStore()
        did = DialogId("c1", "a", "b")
        store.create(did)
        store.remove(store.find_by_call_id("c1"))
        assert store.find(did) is None
        assert store.find_by_call_id("c1") is None

    def test_clear_counts_the_lost(self):
        store = DialogStore()
        for index in range(3):
            store.create(DialogId(f"c{index}", "a", "b"))
        assert store.clear() == 3
        assert store.find_by_call_id("c0") is None
