"""Wire-format SIP parsing (RFC 3261 section 7 subset).

Handles:

- request and status lines,
- header folding (continuation lines starting with whitespace),
- compact header names (``v:`` for Via, ``i:`` for Call-ID, ...),
- comma-separated multi-value headers (Via, Route, Record-Route) split
  into individual entries,
- Content-Length-delimited bodies.

The simulator mostly passes message *objects* between nodes for speed,
but the parser provides real wire round-tripping for fidelity: the test
suite asserts ``parse(msg.to_wire())`` is structurally identical for
every message type the evaluation produces.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from repro.sip.headers import _CANON_CACHE, canonical_name, parse_comma_separated
from repro.sip.message import SIP_VERSION, SipMessage, SipRequest, SipResponse
from repro.sip.uri import parse_uri

# Headers whose values may carry several comma-separated entries that we
# normalize into one entry per header line.
_MULTI_VALUE = {"Via", "Route", "Record-Route", "Contact"}

# The blank line that ends the head, from its first LF on: the literal
# prefix lets the regex engine skip to each LF instead of trying
# an optional CR at every character.
_BLANK_LINE = re.compile(r"\n\r?\n")
_LWS = (" ", "\t")


class SipParseError(ValueError):
    """Raised when wire data is not a valid SIP message."""


def _split_head_body(raw: str) -> Tuple[List[str], str]:
    # Only the head section is line-ending-normalized: the body is a
    # Content-Length-governed octet string (RFC 3261 7.4) and must pass
    # through byte-exact -- normalizing CRLF inside an SDP body would
    # shrink it below its declared length.
    match = _BLANK_LINE.search(raw)
    if match:
        end = match.start()
        if end and raw[end - 1] == "\r":
            end -= 1
        head, body = raw[:end], raw[match.end():]
    else:
        # Headers with no body section; tolerate a missing blank line.
        head, body = raw.rstrip("\r\n"), ""
    return head.replace("\r\n", "\n").split("\n"), body


def _unfold(lines: List[str]) -> List[str]:
    """Merge continuation lines into their parent header line."""
    unfolded: List[str] = []
    for line in lines:
        if line[:1] in _LWS:
            if not unfolded:
                raise SipParseError("continuation line with no preceding header")
            unfolded[-1] += " " + line.strip()
        else:
            unfolded.append(line)
    return unfolded


def parse_headers(lines: List[str]) -> List[Tuple[str, str]]:
    """Parse header lines into ordered (canonical-name, value) pairs."""
    # Folding and comma lists are rare on the wire: unfold only a block
    # that has a continuation line, split only a value that has a comma.
    for line in lines:
        if line[:1] in _LWS:
            lines = _unfold(lines)
            break
    headers: List[Tuple[str, str]] = []
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            if not line.strip():
                continue
            raise SipParseError(f"header line without colon: {line!r}")
        cname = _CANON_CACHE.get(name) or canonical_name(name)
        value = value.strip()
        if cname not in _MULTI_VALUE:
            headers.append((cname, value))
        elif "," in value:
            for item in parse_comma_separated(value):
                headers.append((cname, item))
        elif value:
            headers.append((cname, value))
    return headers


def _decimal(text: str) -> Optional[int]:
    """``text`` as an integer if it is ASCII ``1*DIGIT``, else None.

    Stricter than ``int()``, which also takes a sign, underscores,
    surrounding whitespace and non-ASCII digits.
    """
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # longer than int()'s digit limit
            pass
    return None


def parse_message(raw: Union[str, bytes]) -> SipMessage:
    """Parse wire data into a :class:`SipRequest` or :class:`SipResponse`.

    >>> msg = parse_message(
    ...     "INVITE sip:burdell@cc.gatech.edu SIP/2.0\\r\\n"
    ...     "Via: SIP/2.0/UDP uac.example.com;branch=z9hG4bK1\\r\\n"
    ...     "From: <sip:hal@us.ibm.com>;tag=a1\\r\\n"
    ...     "To: <sip:burdell@cc.gatech.edu>\\r\\n"
    ...     "Call-ID: abc@uac\\r\\nCSeq: 1 INVITE\\r\\n"
    ...     "Max-Forwards: 70\\r\\nContent-Length: 0\\r\\n\\r\\n"
    ... )
    >>> msg.method, str(msg.uri.host)
    ('INVITE', 'cc.gatech.edu')
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SipParseError(f"undecodable message: {exc}") from None
    if not raw.strip():
        raise SipParseError("empty message")
    # Leading CRLFs are stream keep-alives (RFC 3261 section 7.5):
    # ignore them rather than mistaking the blank line for an empty
    # head section.  Start lines never begin with CR or LF.
    raw = raw.lstrip("\r\n")

    lines, body = _split_head_body(raw)
    start = lines[0].strip()
    headers = parse_headers(lines[1:])

    message: SipMessage
    if start.startswith(SIP_VERSION):
        # Status line: SIP/2.0 200 OK
        parts = start.split(" ", 2)
        if len(parts) < 2:
            raise SipParseError(f"bad status line: {start!r}")
        status = _decimal(parts[1])
        if status is None:
            raise SipParseError(f"bad status code: {start!r}")
        reason = parts[2] if len(parts) == 3 else None
        try:
            message = SipResponse(status, reason, headers)
        except ValueError as exc:
            raise SipParseError(f"bad status line: {exc}") from None
    else:
        # Request line: INVITE sip:x SIP/2.0
        parts = start.split()
        if len(parts) != 3 or parts[2] != SIP_VERSION:
            raise SipParseError(f"bad request line: {start!r}")
        method, uri_text = parts[0], parts[1]
        try:
            uri = parse_uri(uri_text)
        except ValueError as exc:
            raise SipParseError(f"bad request URI: {exc}") from None
        message = SipRequest(method, uri, headers)

    declared = message.get("Content-Length")
    if declared is not None:
        length = _decimal(declared)
        if length is None:
            # Name the classic attack on its own: a signed length that a
            # lenient parser would slice off the *end* of the body with.
            if declared[:1] == "-" and _decimal(declared[1:]) is not None:
                raise SipParseError(f"negative Content-Length: {declared}")
            raise SipParseError(f"bad Content-Length: {declared!r}")
        # Content-Length counts octets: an ASCII body (one octet per
        # character) is sliced as it is, anything else as UTF-8.
        try:
            octets = body if body.isascii() else body.encode("utf-8")
        except UnicodeEncodeError as exc:  # a str with a lone surrogate
            raise SipParseError(f"unencodable body: {exc}") from None
        if len(octets) < length:
            raise SipParseError(
                f"truncated body: declared {length}, received {len(octets)}"
            )
        if octets is body:
            body = body[:length]
        else:
            try:
                body = octets[:length].decode("utf-8", errors="strict")
            except UnicodeDecodeError as exc:
                # Content-Length cut through a multi-byte sequence.
                raise SipParseError(f"body truncation splits a character: {exc}") from None
    message.body = body
    return message
