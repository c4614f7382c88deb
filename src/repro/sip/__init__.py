"""A from-scratch SIP (RFC 3261 subset) implementation.

This package provides the protocol substrate the paper's system sits on:

- :mod:`repro.sip.uri` -- SIP URIs,
- :mod:`repro.sip.headers` -- structured headers (Via, From/To, CSeq, ...),
- :mod:`repro.sip.message` -- requests/responses with lazy header parsing,
- :mod:`repro.sip.parser` -- wire-format parsing,
- :mod:`repro.sip.timers` -- RFC 3261 timer constants,
- :mod:`repro.sip.transaction` -- client/server transaction state machines,
- :mod:`repro.sip.dialog` -- dialog identification and state,
- :mod:`repro.sip.digest` -- RFC 2617 digest authentication.

The subset covers everything the paper's evaluation exercises: INVITE
dialogs with provisional responses, ACK, BYE, retransmission timers,
hop-by-hop Via processing, Record-Route/Route, and digest challenges.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sip.uri import SipUri, parse_uri
    from repro.sip.message import SipMessage, SipRequest, SipResponse
    from repro.sip.parser import parse_message, SipParseError
    from repro.sip.headers import Via, NameAddr, CSeq
    from repro.sip.dialog import Dialog, DialogId, DialogStore
    from repro.sip.transaction import (
        ClientTransaction,
        ServerTransaction,
        TransactionState,
    )

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "SipUri": "repro.sip.uri",
    "parse_uri": "repro.sip.uri",
    "SipMessage": "repro.sip.message",
    "SipRequest": "repro.sip.message",
    "SipResponse": "repro.sip.message",
    "parse_message": "repro.sip.parser",
    "SipParseError": "repro.sip.parser",
    "Via": "repro.sip.headers",
    "NameAddr": "repro.sip.headers",
    "CSeq": "repro.sip.headers",
    "Dialog": "repro.sip.dialog",
    "DialogId": "repro.sip.dialog",
    "DialogStore": "repro.sip.dialog",
    "ClientTransaction": "repro.sip.transaction",
    "ServerTransaction": "repro.sip.transaction",
    "TransactionState": "repro.sip.transaction",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
