"""Structured SIP headers (RFC 3261 section 20 subset).

Headers a message actually needs structurally are parsed on demand; the
rest stay as raw strings.  This mirrors the "lazy parsing" behaviour the
paper profiles in OpenSER: richer services touch more headers, so they
pay more parsing cost (Figure 3).  The message layer counts how many
headers were structurally parsed so the cost model can charge for them.

A parsed value belongs to the message that carries it (its view cache,
``repro.sip.message``) and to nothing else: no module-level table keeps
a Via, CSeq or URI alive past its message.  Where a later hop needs the
same value, the message layer hands the object over (``push_via``,
``forward_clone``, ``SipResponse.for_request``) instead of parsing the
text again.  The one process-wide memo left is ``canonical_name``'s, a
pure map over a few dozen header names.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.sip.uri import SipUri, parse_uri


class SipHeaderError(ValueError):
    """Raised when a header value cannot be parsed."""


# Canonical header names, including RFC 3261 compact forms.
_COMPACT_FORMS = {
    "v": "Via",
    "f": "From",
    "t": "To",
    "i": "Call-ID",
    "m": "Contact",
    "l": "Content-Length",
    "c": "Content-Type",
    "k": "Supported",
    "s": "Subject",
    "e": "Content-Encoding",
}

_CANONICAL = {
    "via": "Via",
    "from": "From",
    "to": "To",
    "call-id": "Call-ID",
    "cseq": "CSeq",
    "contact": "Contact",
    "max-forwards": "Max-Forwards",
    "content-length": "Content-Length",
    "content-type": "Content-Type",
    "record-route": "Record-Route",
    "route": "Route",
    "expires": "Expires",
    "user-agent": "User-Agent",
    "authorization": "Authorization",
    "www-authenticate": "WWW-Authenticate",
    "proxy-authenticate": "Proxy-Authenticate",
    "proxy-authorization": "Proxy-Authorization",
    "supported": "Supported",
    "subject": "Subject",
    "retry-after": "Retry-After",
}


def _canonicalize(name: str) -> str:
    lowered = name.strip().lower()
    if lowered in _COMPACT_FORMS:
        return _COMPACT_FORMS[lowered]
    if lowered in _CANONICAL:
        return _CANONICAL[lowered]
    # Unknown headers: Title-Case each dash-separated token, preserving
    # existing interior capitals (X-Servartuka-State stays intact).
    parts = []
    for token in name.strip().split("-"):
        parts.append(token[:1].upper() + token[1:] if token else token)
    return "-".join(parts)


# canonical_name is the single hottest function in the simulator (every
# header get/set goes through it) and is a pure str -> str map, so it is
# cached unconditionally.  The cap only guards against pathological
# header-name churn; real traffic uses a few dozen names.
_CANON_CACHE: Dict[str, str] = {}
_CANON_CACHE_MAX = 4096


def canonical_name(name: str) -> str:
    """Canonicalize a header name, resolving compact forms.

    >>> canonical_name("v")
    'Via'
    >>> canonical_name("CALL-ID")
    'Call-ID'
    >>> canonical_name("X-Servartuka-State")
    'X-Servartuka-State'
    """
    cached = _CANON_CACHE.get(name)
    if cached is None:
        cached = _canonicalize(name)
        if len(_CANON_CACHE) < _CANON_CACHE_MAX:
            _CANON_CACHE[name] = cached
    return cached


def _parse_params(raw: str) -> Dict[str, Optional[str]]:
    """Parse ``;k=v;flag`` parameter tails."""
    params: Dict[str, Optional[str]] = {}
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        params[key.strip()] = value.strip() if sep else None
    return params


def _format_params(params: Dict[str, Optional[str]]) -> str:
    out = []
    for key, value in params.items():
        out.append(f";{key}" if value is None else f";{key}={value}")
    return "".join(out)


_VIA_GRAMMAR = re.compile(
    r"SIP\s*/\s*2\.0\s*/\s*(\w+)\s+([^;\s]+)(.*)", re.IGNORECASE
)


class Via(object):
    """A Via header field value: ``SIP/2.0/UDP host:port;branch=...``.

    The top Via's branch parameter is the RFC 3261 transaction key; the
    simulator also uses Via stacks to route responses hop by hop exactly
    like a real proxy chain.
    """

    __slots__ = ("transport", "host", "port", "params")

    MAGIC_COOKIE = "z9hG4bK"

    def __init__(
        self,
        host: str,
        port: Optional[int] = None,
        transport: str = "UDP",
        branch: Optional[str] = None,
        params: Optional[Dict[str, Optional[str]]] = None,
    ):
        self.transport = transport.upper()
        self.host = host
        self.port = port
        self.params = dict(params) if params else {}
        if branch is not None:
            self.params["branch"] = branch

    @property
    def branch(self) -> Optional[str]:
        return self.params.get("branch")

    @property
    def sent_by(self) -> str:
        return self.host if self.port is None else f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, raw: str) -> "Via":
        raw = raw.strip()
        match = _VIA_GRAMMAR.match(raw)
        if not match:
            raise SipHeaderError(f"bad Via: {raw!r}")
        transport, sent_by, tail = match.groups()
        host, port = sent_by, None
        if ":" in sent_by:
            host, _, port_text = sent_by.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                raise SipHeaderError(f"bad Via port: {raw!r}") from None
        params = _parse_params(tail) if tail.strip(";").strip() else {}
        return cls(host, port, transport, params=params)

    def __str__(self) -> str:
        return f"SIP/2.0/{self.transport} {self.sent_by}{_format_params(self.params)}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Via):
            return NotImplemented
        return str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Via({str(self)!r})"


class NameAddr(object):
    """From / To / Contact / Route style value: ``"Name" <uri>;params``."""

    __slots__ = ("display", "uri", "params")

    def __init__(
        self,
        uri: SipUri,
        display: Optional[str] = None,
        params: Optional[Dict[str, Optional[str]]] = None,
        tag: Optional[str] = None,
    ):
        self.uri = uri
        self.display = display
        self.params = dict(params) if params else {}
        if tag is not None:
            self.params["tag"] = tag

    @property
    def tag(self) -> Optional[str]:
        return self.params.get("tag")

    def with_tag(self, tag: str) -> "NameAddr":
        return NameAddr(self.uri, self.display, dict(self.params, tag=tag))

    @classmethod
    def parse(cls, raw: str) -> "NameAddr":
        raw = raw.strip()
        display: Optional[str] = None
        if "<" in raw:
            head, _, rest = raw.partition("<")
            uri_text, _, tail = rest.partition(">")
            head = head.strip()
            if head.startswith('"') and head.endswith('"') and len(head) >= 2:
                display = head[1:-1]
            elif head:
                display = head
            params = _parse_params(tail)
        else:
            # addr-spec form: params after the first ';' belong to the
            # header, not the URI (RFC 3261 20.10 note).
            uri_text, _, tail = raw.partition(";")
            params = _parse_params(tail) if tail else {}
        uri = parse_uri(uri_text.strip())
        return cls(uri, display, params)

    def __str__(self) -> str:
        if self.display is not None:
            core = f'"{self.display}" <{self.uri}>'
        else:
            core = f"<{self.uri}>"
        return core + _format_params(self.params)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameAddr):
            return NotImplemented
        return self.uri == other.uri and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.uri, tuple(sorted(self.params.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NameAddr({str(self)!r})"


class CSeq(object):
    """CSeq header value: sequence number plus method."""

    __slots__ = ("number", "method")

    def __init__(self, number: int, method: str):
        if number < 0:
            raise SipHeaderError(f"negative CSeq: {number}")
        self.number = number
        self.method = method.upper()

    @classmethod
    def parse(cls, raw: str) -> "CSeq":
        parts = raw.split()
        if len(parts) != 2:
            raise SipHeaderError(f"bad CSeq: {raw!r}")
        try:
            number = int(parts[0])
        except ValueError:
            raise SipHeaderError(f"bad CSeq number: {raw!r}") from None
        return cls(number, parts[1])

    def next_in_dialog(self, method: str) -> "CSeq":
        return CSeq(self.number + 1, method)

    def __str__(self) -> str:
        return f"{self.number} {self.method}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSeq):
            return NotImplemented
        return self.number == other.number and self.method == other.method

    def __hash__(self) -> int:
        return hash((self.number, self.method))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSeq({self.number}, {self.method!r})"


def parse_comma_separated(raw: str) -> List[str]:
    """Split a header value on top-level commas (not inside <> or quotes).

    Used for Via / Route / Record-Route values that carry several
    entries on one line.
    """
    if "," not in raw:
        # Nothing to split -- the case for every value on our own wire.
        raw = raw.strip()
        return [raw] if raw else []
    values: List[str] = []
    depth = 0
    quoted = False
    current: List[str] = []
    for char in raw:
        if char == '"':
            quoted = not quoted
        elif not quoted and char == "<":
            depth += 1
        elif not quoted and char == ">":
            depth = max(0, depth - 1)
        if char == "," and depth == 0 and not quoted:
            values.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        values.append(tail)
    return values


def parse_auth_params(raw: str) -> Tuple[str, Dict[str, str]]:
    """Parse ``Digest k="v", k2=v2`` credential/challenge values."""
    scheme, _, rest = raw.strip().partition(" ")
    params: Dict[str, str] = {}
    for item in parse_comma_separated(rest):
        key, sep, value = item.partition("=")
        if not sep:
            raise SipHeaderError(f"bad auth parameter: {item!r}")
        value = value.strip()
        if value.startswith('"') and value.endswith('"'):
            value = value[1:-1]
        params[key.strip()] = value
    return scheme, params


def format_auth_params(scheme: str, params: Dict[str, str]) -> str:
    quoted = ", ".join(f'{k}="{v}"' for k, v in params.items())
    return f"{scheme} {quoted}"
