"""SIP request/response model with lazy header parsing.

Headers are stored as an ordered list of ``(canonical-name, raw-value)``
pairs.  Structured views (:class:`~repro.sip.headers.Via`,
:class:`~repro.sip.headers.NameAddr`, :class:`~repro.sip.headers.CSeq`)
are built on first access and cached, the way the paper observes
OpenSER doing it ("parsing in most SIP servers is lazy ... richer
services require more of the message to be parsed").

A view is owned by its message and lives as long as it does.  Where a
node already holds the value a header was rendered from -- the Via it
pushes, the CSeq and To it built a request with, the views of the
request it answers -- it stores that object as the view, so the next
reader skips the parse; each such view equals what parsing the header
would give.  A final kept only for replay is kept as its wire text
(:class:`~repro.sip.transaction.ProxyTransaction`), which holds none.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.sip.headers import (
    _CANON_CACHE,
    CSeq,
    NameAddr,
    SipHeaderError,
    Via,
    canonical_name,
)
from repro.sip.uri import SipUri, parse_uri

SIP_VERSION = "SIP/2.0"

# Sentinel distinguishing "not cached" from a legitimately-cached None.
_MISSING = object()

# ---------------------------------------------------------------------------
# Engine modes (the simulator's "serialization" layer)
# ---------------------------------------------------------------------------
# In the simulator a hop hands over ``message.copy()`` where a real stack
# would put the message on the wire.  Two message paths, observationally
# identical (tests/engine/test_differential.py proves it):
#
# - ``"reference"`` -- wire-faithful: every copy serializes with
#   :meth:`SipMessage.to_wire` and re-parses with
#   ``repro.sip.parser.parse_message``, paying exactly what a real
#   stack pays per hop.  The oracle the bench compares against, and the
#   import-time state.
# - ``"turbo"`` -- copy-on-write: share the header list and carry the
#   parsed views across the copy; plus deferred per-component CPU
#   accounting and lean metrics.  The default.
#
# In the message layer the flag decides one thing: how a message
# crosses a hop (``copy()`` below).  What one message caches about
# itself (the lazy views below, the top Via, the transaction key), the
# views a sender hands over (``push_via``, ``build``, ``for_request``),
# the proxy's one-pass ``forward_clone`` and the nodes' pure-function
# memos are the same code on both rungs:
# nothing in repro.servers asks which rung it runs on.  Messages, packets,
# CPU jobs and proxy plans are plain allocations on both rungs, and
# random draws go through the stdlib ``random.Random`` methods, so any
# node may keep what it received -- and a node never mutates a message
# it received: the sender may still hold it for retransmission, so
# edits go into the forwarded copy.  On both rungs the cyclic collector
# is off while a run executes (repro.sim.events.collector_off).
#
# "sharded" runs turbo's message layer per shard; the window
# synchronization lives in repro.sim.shard.
#: The engine names -- defined here once, imported everywhere else.
ENGINES = ("reference", "turbo", "sharded")

# The one engine flag: process-global, set per scenario construction.
_TURBO = False


def check_engine(name: str) -> str:
    """``name`` if it is a known engine, else a one-line ValueError."""
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; one of {', '.join(ENGINES)} "
            "('copy' and 'fast' were removed: 'turbo' is their "
            "bit-identical replacement; 'hybrid' was removed: 'turbo' "
            "runs the same scenarios without fast-forward)"
        )
    return name


def set_engine_mode(mode: str) -> None:
    """Select how ``copy()`` models the wire (see module comment).

    The single writer of every engine switch: fans out to deferred
    per-component CPU accounting and the metrics allocation mode.  The
    cyclic collector is not an engine switch: the driver of every run
    turns it off for that run on both rungs
    (``repro.sim.events.collector_off``), so no mode touches it.
    """
    global _TURBO
    _TURBO = check_engine(mode) != "reference"
    # The accounting switches live in the substrate layers; imported
    # lazily because repro.sim (via repro.sim.trace) imports this module.
    from repro.sim.cpu import set_deferred_accounting
    from repro.sim.metrics import set_lean_metrics

    set_deferred_accounting(_TURBO)
    set_lean_metrics(_TURBO)


# Methods the simulator understands; others parse fine but have no
# special transaction semantics.
KNOWN_METHODS = ("INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS")

# Reason phrases for the status codes the evaluation produces.
REASON_PHRASES = {
    100: "Trying",
    180: "Ringing",
    183: "Session Progress",
    200: "OK",
    202: "Accepted",
    302: "Moved Temporarily",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    407: "Proxy Authentication Required",
    408: "Request Timeout",
    481: "Call/Transaction Does Not Exist",
    482: "Loop Detected",
    483: "Too Many Hops",
    486: "Busy Here",
    487: "Request Terminated",
    500: "Server Internal Error",
    503: "Service Unavailable",
}


class SipMessage:
    """Shared base for requests and responses."""

    # Slotted: a run allocates one message per hop, and __slots__
    # shrinks each one.
    __slots__ = (
        "headers",
        "body",
        "_cache",
        "_cow",
        "__weakref__",
    )

    def __init__(self, headers: Optional[List[Tuple[str, str]]] = None, body: str = ""):
        self.headers: List[Tuple[str, str]] = list(headers) if headers else []
        self.body = body
        self._cache: Dict[str, object] = {}
        # True while self.headers may be shared with a fast-path clone;
        # in-place mutators must materialize a private list first.
        self._cow = False

    def _own_headers(self) -> None:
        if self._cow:
            self.headers = list(self.headers)
            self._cow = False

    # ------------------------------------------------------------------
    # Raw header access
    # ------------------------------------------------------------------
    # Header access is the hottest message-layer path; the canonical-name
    # memo in repro.sip.headers is probed inline (falling back to the
    # full canonicalizer on a miss) to skip a function call per lookup.
    # Messages carry ~10 headers, so linear scans beat any per-message
    # index: an index costs a full build pass per forwarding hop (every
    # hop mutates the headers) plus two dict probes per read, which
    # measures slower than the scan it replaces.

    def get(self, name: str) -> Optional[str]:
        """First raw value for a header, or None."""
        wanted = _CANON_CACHE.get(name) or canonical_name(name)
        for header, value in self.headers:
            if header == wanted:
                return value
        return None

    def get_all(self, name: str) -> List[str]:
        wanted = _CANON_CACHE.get(name) or canonical_name(name)
        return [value for header, value in self.headers if header == wanted]

    def set(self, name: str, value: str) -> None:
        """Replace all instances of a header with a single value."""
        wanted = _CANON_CACHE.get(name) or canonical_name(name)
        self.headers = [(h, v) for h, v in self.headers if h != wanted]
        self._cow = False
        self.headers.append((wanted, value))
        self._invalidate(wanted)

    def add(self, name: str, value: str, at_top: bool = False) -> None:
        """Append (or prepend) one more instance of a header."""
        wanted = _CANON_CACHE.get(name) or canonical_name(name)
        self._own_headers()
        if at_top:
            self.headers.insert(0, (wanted, value))
        else:
            self.headers.append((wanted, value))
        self._invalidate(wanted)

    def remove(self, name: str) -> int:
        """Remove all instances; returns how many were removed."""
        wanted = canonical_name(name)
        before = len(self.headers)
        self.headers = [(h, v) for h, v in self.headers if h != wanted]
        self._cow = False
        self._invalidate(wanted)
        return before - len(self.headers)

    def count(self, name: str) -> int:
        """Number of instances of a header, without building a list."""
        wanted = _CANON_CACHE.get(name) or canonical_name(name)
        total = 0
        for header, _value in self.headers:
            if header == wanted:
                total += 1
        return total

    def has(self, name: str) -> bool:
        return self.get(name) is not None

    def _invalidate(self, name: str) -> None:
        self._cache.pop(name, None)
        if name == "Via":
            self._cache.pop("_top_via", None)
            self._cache.pop("_txn_key", None)
        elif name == "CSeq":
            self._cache.pop("_txn_key", None)

    def copy(self) -> "SipMessage":
        """Independent copy: what the next hop receives.

        Reference: a wire round trip (serialize, re-parse).  Turbo: the
        header list is shared copy-on-write (mutators materialize a
        private list before touching it) and the parsed header views
        ride along, since both sides treat views as immutable.
        Protocol-visible behavior is identical.
        """
        if _TURBO:
            return self._share(dict(self._cache))
        return _wire_copy(self)

    def _cached(self, key: str, builder) -> object:
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # ------------------------------------------------------------------
    # Structured views (lazy)
    # ------------------------------------------------------------------
    @property
    def vias(self) -> List[Via]:
        """All Via entries, topmost first."""
        return self._cached("Via", lambda: [Via.parse(v) for v in self.get_all("Via")])

    @property
    def top_via(self) -> Optional[Via]:
        # Parse only the topmost Via; transaction matching and response
        # routing never need the rest of the stack.  Falls back to the
        # full-stack cache when it already exists.
        cache = self._cache
        top = cache.get("_top_via", _MISSING)
        if top is not _MISSING:
            return top
        stack = cache.get("Via")
        if stack is not None:
            return stack[0] if stack else None
        raw = self.get("Via")
        top = Via.parse(raw) if raw is not None else None
        cache["_top_via"] = top
        return top

    def push_via(self, via: Via) -> None:
        """Add ``via`` on top; it becomes the top view, and heads the
        stack view when the rest of the stack is already parsed."""
        stack = self._cache.get("Via")
        self.add("Via", str(via), at_top=True)
        _set_top_via(self._cache, via, stack)

    def pop_via(self) -> Optional[Via]:
        """Remove and return the topmost Via (response forwarding).

        A parsed stack view stays, minus its head, so the next hop's
        Via needs no parse.
        """
        top = self.top_via
        if top is None:
            return None
        stack = self._cache.get("Via")
        self._own_headers()
        for index, (header, _value) in enumerate(self.headers):
            if header == "Via":
                del self.headers[index]
                break
        self._invalidate("Via")
        if stack is not None:
            rest = self._cache["Via"] = stack[1:]
            self._cache["_top_via"] = rest[0] if rest else None
        return top

    @property
    def from_(self) -> NameAddr:
        cached = self._cache.get("From")
        if cached is not None:
            return cached
        raw = self.get("From")
        if raw is None:
            raise SipHeaderError("missing From header")
        value = self._cache["From"] = NameAddr.parse(raw)
        return value

    @property
    def to(self) -> NameAddr:
        cached = self._cache.get("To")
        if cached is not None:
            return cached
        raw = self.get("To")
        if raw is None:
            raise SipHeaderError("missing To header")
        value = self._cache["To"] = NameAddr.parse(raw)
        return value

    @property
    def cseq(self) -> CSeq:
        cached = self._cache.get("CSeq")
        if cached is not None:
            return cached
        raw = self.get("CSeq")
        if raw is None:
            raise SipHeaderError("missing CSeq header")
        value = self._cache["CSeq"] = CSeq.parse(raw)
        return value

    @property
    def call_id(self) -> str:
        raw = self.get("Call-ID")
        if raw is None:
            raise SipHeaderError("missing Call-ID header")
        return raw

    @property
    def record_routes(self) -> List[NameAddr]:
        return self._cached(
            "Record-Route",
            lambda: [NameAddr.parse(v) for v in self.get_all("Record-Route")],
        )

    @property
    def routes(self) -> List[NameAddr]:
        return self._cached(
            "Route", lambda: [NameAddr.parse(v) for v in self.get_all("Route")]
        )

    # ------------------------------------------------------------------
    # Transaction / dialog identification
    # ------------------------------------------------------------------
    def transaction_key(self) -> Tuple[str, str, str]:
        """RFC 3261 17.2.3 transaction key: (branch, sent-by, method).

        ACK and CANCEL match the INVITE transaction they refer to, so
        their method component maps to INVITE.
        """
        key = self._cache.get("_txn_key")
        if key is not None:
            return key
        via = self.top_via
        if via is None or not via.branch:
            raise SipHeaderError("cannot compute transaction key without a Via branch")
        method = self.cseq.method
        if method in ("ACK", "CANCEL"):
            method = "INVITE"
        key = self._cache["_txn_key"] = (via.branch, via.sent_by, method)
        return key

    def dialog_key(self) -> Tuple[str, Optional[str], Optional[str]]:
        """(Call-ID, from-tag, to-tag) -- unordered dialog identifier."""
        return (self.call_id, self.from_.tag, self.to.tag)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def start_line(self) -> str:
        raise NotImplementedError

    def to_wire(self) -> str:
        """Render the message in wire format (CRLF line endings)."""
        lines = [self.start_line()]
        has_length = False
        for header, value in self.headers:
            if header == "Content-Length":
                has_length = True
            lines.append(f"{header}: {value}")
        if not has_length:
            lines.append(f"Content-Length: {len(self.body.encode('utf-8'))}")
        return "\r\n".join(lines) + "\r\n\r\n" + self.body

    def size_bytes(self) -> int:
        return len(self.to_wire().encode("utf-8"))

    @property
    def is_request(self) -> bool:
        return isinstance(self, SipRequest)

    @property
    def is_response(self) -> bool:
        return isinstance(self, SipResponse)


class SipRequest(SipMessage):
    """A SIP request: method, request-URI, headers, body."""

    __slots__ = ("method", "uri")

    def __init__(
        self,
        method: str,
        uri: SipUri,
        headers: Optional[List[Tuple[str, str]]] = None,
        body: str = "",
    ):
        super().__init__(headers, body)
        self.method = method.upper()
        self.uri = uri

    def start_line(self) -> str:
        return f"{self.method} {self.uri} {SIP_VERSION}"

    def _share(self, views: Dict[str, object]) -> "SipRequest":
        clone = SipRequest.__new__(SipRequest)
        clone.method = self.method
        clone.uri = self.uri
        clone.body = self.body
        clone.headers = self.headers
        clone._cache = views
        clone._cow = True
        self._cow = True
        return clone

    def max_forwards(self) -> int:
        """The Max-Forwards value, read without touching the message.

        Raises :class:`SipHeaderError` when the header is absent or
        malformed -- a proxy must reject such requests with 483.
        """
        raw = self.get("Max-Forwards")
        if raw is None:
            raise SipHeaderError("missing Max-Forwards")
        try:
            return int(raw)
        except ValueError:
            raise SipHeaderError(f"bad Max-Forwards: {raw!r}") from None

    def decrement_max_forwards(self) -> int:
        """Decrement Max-Forwards in place; returns the new value.

        Only for a copy this node owns: a received request may still be
        held by its sender for retransmission.  Raises like
        :meth:`max_forwards`.
        """
        value = self.max_forwards() - 1
        self.set("Max-Forwards", str(value))
        return value

    @classmethod
    def build(
        cls,
        method: str,
        uri: Union[str, SipUri],
        from_addr: Union[str, SipUri],
        to_addr: Union[str, SipUri],
        call_id: str,
        cseq: int,
        from_tag: Optional[str] = None,
        to_tag: Optional[str] = None,
        max_forwards: int = 70,
        body: str = "",
    ) -> "SipRequest":
        """Construct a well-formed request (no Via; the sender pushes it).

        The addresses may be given parsed, so a sender that reuses one
        parses it once.  The request keeps the To and CSeq it was
        rendered from as their views, and an empty Via stack view.
        """
        request = cls(method, _as_uri(uri), body=body)
        from_na = NameAddr(_as_uri(from_addr), tag=from_tag)
        to_na = NameAddr(_as_uri(to_addr), tag=to_tag)
        sequence = CSeq(cseq, method)
        # Equivalent to set() per header on an empty message; built
        # directly to skip the per-call replace scans.
        request.headers = [
            ("From", str(from_na)),
            ("To", str(to_na)),
            ("Call-ID", call_id),
            ("CSeq", str(sequence)),
            ("Max-Forwards", str(max_forwards)),
        ]
        request._cache = {"To": to_na, "CSeq": sequence, "Via": []}
        return request

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SipRequest {self.method} {self.uri}>"


def forward_clone(
    request: "SipRequest",
    proxy_name: str,
    branch: str,
    own_route: str,
    auth: Optional[Tuple[str, str]],
    state: Optional[Tuple[str, str]],
    record_route: bool,
    max_forwards: str,
) -> "SipRequest":
    """A proxy's downstream copy of ``request``, rewritten in one pass.

    Starts from ``request.copy()``, so each rung crosses the hop its own
    way (a wire round trip on the reference rung), then rebuilds the
    copy's header list in a single traversal.  The result carries the
    same values per header name, and the same Via, Route and
    Record-Route stacks, as the forwarding mutator sequence on that copy:
    ``set("Max-Forwards", max_forwards)``; when the top Route is
    ``own_route`` (RFC 3261 16.4), ``remove("Route")`` and ``add`` of the
    rest; ``set`` of the ``auth`` / ``state`` markers; ``add("Record-Route",
    own_route, at_top=True)`` when ``record_route``; ``push_via`` of
    ``Via(proxy_name, branch=branch)``.  Max-Forwards keeps its place:
    it is single-instance and read only by value.  Header names in
    ``auth``/``state`` must already be canonical.  The source request is
    left untouched.
    """
    # Rendered directly; byte-identical to str(Via(proxy_name,
    # branch=branch)) for the default UDP/no-port/branch-only shape.
    raw = f"SIP/2.0/UDP {proxy_name};branch={branch}"
    via = Via.__new__(Via)
    via.transport = "UDP"
    via.host = proxy_name
    via.port = None
    via.params = {"branch": branch}
    clone = request.copy()

    auth_name = auth[0] if auth is not None else None
    state_name = state[0] if state is not None else None

    headers = [("Via", raw)]
    if record_route:
        headers.append(("Record-Route", own_route))
    # Loose routing: when the top Route is ours, every Route is popped
    # and the remainder re-appended at the tail (what remove()+add()
    # does).  Decided at the first Route encountered, so no separate
    # pre-scan is needed.
    pop_routes = None
    tail_routes = None
    for item in clone.headers:
        name = item[0]
        if name == "Route":
            if pop_routes is None:
                pop_routes = item[1] == own_route
            if pop_routes:
                if tail_routes is None:
                    tail_routes = []  # the top Route is ours: drop it
                else:
                    tail_routes.append(item)
                continue
        elif name == "Max-Forwards":
            item = ("Max-Forwards", max_forwards)
        elif name == auth_name or name == state_name:
            continue
        headers.append(item)
    if tail_routes:
        headers.extend(tail_routes)
    if auth is not None:
        headers.append(auth)
    if state is not None:
        headers.append(state)
    clone.headers = headers
    clone._cow = False

    # Drop the views the mutator sequence would invalidate; the new top
    # Via is stored as a view, as push_via stores it.
    cache = clone._cache
    if pop_routes:
        cache.pop("Route", None)
    if auth_name is not None:
        cache.pop(auth_name, None)
    if state_name is not None:
        cache.pop(state_name, None)
    if record_route:
        cache.pop("Record-Route", None)
    cache.pop("_txn_key", None)
    _set_top_via(cache, via, cache.get("Via"))
    return clone


def _set_top_via(cache: Dict[str, object], via: Via,
                 stack: Optional[List[Via]]) -> None:
    """Store ``via`` as the top view of the message whose Via header it
    was just rendered into, on top of ``stack`` (the stack view before
    the push, None if it was never parsed)."""
    cache["_top_via"] = via
    if stack is not None:
        cache["Via"] = [via, *stack]


class SipResponse(SipMessage):
    """A SIP response: status code, reason phrase, headers, body."""

    __slots__ = ("status", "reason")

    def __init__(
        self,
        status: int,
        reason: Optional[str] = None,
        headers: Optional[List[Tuple[str, str]]] = None,
        body: str = "",
    ):
        super().__init__(headers, body)
        if not 100 <= status <= 699:
            raise ValueError(f"status out of range: {status}")
        self.status = status
        self.reason = reason if reason is not None else REASON_PHRASES.get(status, "Unknown")

    def start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"

    @property
    def is_provisional(self) -> bool:
        return 100 <= self.status < 200

    @property
    def is_final(self) -> bool:
        return self.status >= 200

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    def _share(self, views: Dict[str, object]) -> "SipResponse":
        clone = SipResponse.__new__(SipResponse)
        clone.status = self.status
        clone.reason = self.reason
        clone.body = self.body
        clone.headers = self.headers
        clone._cache = views
        clone._cow = True
        self._cow = True
        return clone

    @classmethod
    def for_request(
        cls,
        request: SipRequest,
        status: int,
        reason: Optional[str] = None,
        to_tag: Optional[str] = None,
    ) -> "SipResponse":
        """Build a response per RFC 3261 8.2.6: copy Via stack, From,
        To (optionally adding a tag), Call-ID and CSeq from the request.
        """
        response = cls(status, reason)
        views = request._cache
        to_view = views.get("To")
        to_value = request.get("To") or ""
        if to_tag is not None and ";tag=" not in to_value:
            to_value = f"{to_value};tag={to_tag}"
            if to_view is not None:
                to_view = to_view.with_tag(to_tag)
        # Same header list the add()/set() sequence would produce on a
        # fresh message, built in one pass.  Record-Route is mirrored
        # into responses so dialogs learn the proxy route set
        # (RFC 3261 16.7).
        headers = [("Via", value) for value in request.get_all("Via")]
        headers.append(("From", request.get("From") or ""))
        headers.append(("To", to_value))
        headers.append(("Call-ID", request.call_id))
        headers.append(("CSeq", request.get("CSeq") or ""))
        for value in request.get_all("Record-Route"):
            headers.append(("Record-Route", value))
        response.headers = headers
        # The request's views of the copied headers are the response's.
        handed = response._cache
        for name in _ANSWER_VIEWS:
            view = views.get(name, _MISSING)
            if view is not _MISSING:
                handed[name] = view
        if to_view is not None:
            handed["To"] = to_view
        return response

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SipResponse {self.status} {self.reason}>"


# Views of headers a response copies verbatim from its request.
_ANSWER_VIEWS = ("Via", "_top_via", "From", "CSeq")


def _as_uri(uri: Union[str, SipUri]) -> SipUri:
    return parse_uri(uri) if isinstance(uri, str) else uri


def _wire_copy(message: SipMessage) -> SipMessage:
    """Reference-engine copy: a real wire round trip.

    Serializes the message and re-parses the octets, exactly what two
    processes on a LAN would do per hop.  Imported lazily because
    ``repro.sip.parser`` imports this module.
    """
    from repro.sip.parser import parse_message

    return parse_message(message.to_wire())
