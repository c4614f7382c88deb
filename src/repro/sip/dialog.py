"""SIP dialogs (RFC 3261 section 12 subset): the UA's side and the
proxy's table.

A user agent that sends requests in a dialog (the UAC, the B2BUA's leg
B) keeps one :class:`Dialog` per call and builds every request of the
call from it.  A *dialog-stateful* proxy (paper section 2.2) keeps
state for the whole call so that later transactions (re-INVITE, BYE)
can be tied back to the INVITE that created the dialog -- the paper's
example use cases are accounting and conference servers.  It keys its
:class:`DialogStore` by :class:`DialogId`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sip.headers import Via
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.uri import SipUri


class DialogId:
    """(Call-ID, local tag, remote tag) triple.

    The same dialog has mirrored ids at caller and callee; ``normalized``
    gives an orientation-free key that proxies can use.
    """

    __slots__ = ("call_id", "local_tag", "remote_tag")

    def __init__(self, call_id: str, local_tag: Optional[str], remote_tag: Optional[str]):
        self.call_id = call_id
        self.local_tag = local_tag
        self.remote_tag = remote_tag

    @property
    def normalized(self) -> Tuple[str, Tuple[Optional[str], ...]]:
        tags = tuple(sorted((self.local_tag or "", self.remote_tag or "")))
        return (self.call_id, tags)

    @classmethod
    def from_message(cls, message: SipMessage, local_is_from: bool) -> "DialogId":
        from_tag = message.from_.tag
        to_tag = message.to.tag
        if local_is_from:
            return cls(message.call_id, from_tag, to_tag)
        return cls(message.call_id, to_tag, from_tag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DialogId):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self) -> int:
        return hash(self.normalized)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DialogId({self.call_id!r}, {self.local_tag!r}, {self.remote_tag!r})"


class Dialog:
    """What a UA that sends requests in a dialog keeps of it.

    ``host`` is the UA's node name (its Via and Contact); the request
    URI and the To header are both ``remote_uri``.  ``remote_tag`` and
    ``route_set`` come from the 2xx that answers the INVITE
    (:meth:`confirm`); ``cseq`` is the sequence number the next request
    carries, and its owner raises it for each new request but ACK and
    CANCEL.
    """

    __slots__ = ("host", "call_id", "local_uri", "local_tag", "remote_uri",
                 "remote_tag", "route_set", "cseq")

    def __init__(self, host: str, call_id: str, local_uri: SipUri,
                 local_tag: str, remote_uri: SipUri):
        self.host = host
        self.call_id = call_id
        self.local_uri = local_uri
        self.local_tag = local_tag
        self.remote_uri = remote_uri
        self.remote_tag: Optional[str] = None
        self.route_set: list = []
        self.cseq = 1

    def confirm(self, response: SipResponse) -> None:
        """Learn the remote tag and the route set from a 2xx."""
        self.remote_tag = response.to.tag
        self.route_set = list(response.get_all("Record-Route"))

    def request(self, method: str, branch: str, body: str = "",
                cseq: Optional[int] = None) -> SipRequest:
        """The dialog's next ``method`` request, its Via (with
        ``branch``) pushed, numbered ``cseq`` (default the dialog's).
        An INVITE carries the UA's Contact, a body its SDP Content-Type;
        a Route follows for each route-set entry.
        """
        request = SipRequest.build(
            method,
            uri=self.remote_uri,
            from_addr=self.local_uri,
            to_addr=self.remote_uri,
            call_id=self.call_id,
            cseq=self.cseq if cseq is None else cseq,
            from_tag=self.local_tag,
            to_tag=self.remote_tag,
            body=body,
        )
        # add() rather than set(): a freshly built request carries none
        # of these headers, so appending is equivalent and skips the
        # replace scan.
        if method == "INVITE":
            request.add("Contact", f"<sip:{self.host}>")
        if body:
            request.add("Content-Type", "application/sdp")
        for route in self.route_set:
            request.add("Route", route)
        request.push_via(Via(self.host, branch=branch))
        return request


class DialogStore:
    """The dialogs a dialog-stateful proxy holds.

    Proxies match in-dialog requests by Call-ID (they may see the
    request before learning the remote tag), and a new dialog by its
    full id; both lookups are provided.
    """

    def __init__(self) -> None:
        self._by_id: Dict[DialogId, DialogId] = {}
        self._by_call_id: Dict[str, DialogId] = {}

    def create(self, dialog_id: DialogId) -> None:
        if dialog_id in self._by_id:
            raise ValueError(f"dialog already exists: {dialog_id}")
        self._by_id[dialog_id] = dialog_id
        self._by_call_id[dialog_id.call_id] = dialog_id

    def find(self, dialog_id: DialogId) -> Optional[DialogId]:
        return self._by_id.get(dialog_id)

    def find_by_call_id(self, call_id: str) -> Optional[DialogId]:
        return self._by_call_id.get(call_id)

    def remove(self, dialog_id: DialogId) -> None:
        self._by_id.pop(dialog_id, None)
        self._by_call_id.pop(dialog_id.call_id, None)

    def clear(self) -> int:
        """Drop every dialog (node crash); returns how many were lost."""
        lost = len(self._by_id)
        self._by_id.clear()
        self._by_call_id.clear()
        return lost
