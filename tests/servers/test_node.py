"""Tests for SIP message cost classification."""

import pytest

from repro.core.costmodel import MessageKind
from repro.servers.node import classify_sip_kind
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse


def make_request(method="INVITE", vias=1):
    request = SipRequest.build(
        method, "sip:u@x.com", "sip:a@y.com", "sip:u@x.com", "c1",
        1 if method == "INVITE" else 2, "ft",
    )
    request.set("CSeq", f"{request.cseq.number} {method}")
    for index in range(vias):
        request.push_via(Via(f"h{index}", branch=f"z9hG4bK{index}"))
    return request


class TestClassification:
    @pytest.mark.parametrize(
        "method,kind",
        [
            ("INVITE", MessageKind.INVITE),
            ("ACK", MessageKind.ACK),
            ("BYE", MessageKind.BYE),
            ("REGISTER", MessageKind.REGISTER),
            ("OPTIONS", MessageKind.GENERIC),
        ],
    )
    def test_requests(self, method, kind):
        assert classify_sip_kind(make_request(method)) == kind

    @pytest.mark.parametrize(
        "status,cseq_method,kind",
        [
            (100, "INVITE", MessageKind.PROVISIONAL_100),
            (180, "INVITE", MessageKind.PROVISIONAL_180),
            (200, "INVITE", MessageKind.FINAL_200_INVITE),
            (200, "BYE", MessageKind.FINAL_200_BYE),
            (486, "INVITE", MessageKind.FINAL_200_INVITE),
        ],
    )
    def test_responses(self, status, cseq_method, kind):
        request = make_request("INVITE" if cseq_method == "INVITE" else "BYE")
        response = SipResponse.for_request(request, status)
        assert classify_sip_kind(response) == kind
