"""The header codec as it was before the one-pass rewrite, verbatim.

A test-local oracle: ``test_codec_equivalence.py`` asserts that
``repro.sip.parser`` / ``repro.sip.headers`` return the same header
list -- or raise the same exception type -- as these bodies on every
input it can find or generate.  Do not optimise this file; its value is
that it is the slow, obviously-sequential version.
"""

import re
from typing import List, Tuple

from repro.sip.headers import canonical_name
from repro.sip.parser import SipParseError

_MULTI_VALUE = {"Via", "Route", "Record-Route", "Contact"}


def parse_comma_separated(raw: str) -> List[str]:
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


def split_head_body(raw: str) -> Tuple[List[str], str]:
    match = re.search(r"\r?\n\r?\n", raw)
    if match:
        head, body = raw[: match.start()], raw[match.end():]
    else:
        head, body = raw.rstrip("\r\n"), ""
    return head.replace("\r\n", "\n").split("\n"), body


def unfold(lines: List[str]) -> List[str]:
    unfolded: List[str] = []
    for line in lines:
        if line[:1] in (" ", "\t"):
            if not unfolded:
                raise SipParseError("continuation line with no preceding header")
            unfolded[-1] += " " + line.strip()
        else:
            unfolded.append(line)
    return unfolded


def parse_headers(lines: List[str]) -> List[Tuple[str, str]]:
    headers: List[Tuple[str, str]] = []
    for line in unfold(lines):
        if not line.strip():
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise SipParseError(f"header line without colon: {line!r}")
        cname = canonical_name(name)
        value = value.strip()
        if cname in _MULTI_VALUE:
            for item in parse_comma_separated(value):
                headers.append((cname, item))
        else:
            headers.append((cname, value))
    return headers


def cut_body(body: str, length: int) -> str:
    """The Content-Length cut, by a UTF-8 round trip whatever the body."""
    encoded = body.encode("utf-8")
    if len(encoded) < length:
        raise SipParseError(
            f"truncated body: declared {length}, received {len(encoded)}"
        )
    try:
        return encoded[:length].decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise SipParseError(f"body truncation splits a character: {exc}") from None
