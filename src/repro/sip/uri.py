"""SIP URI parsing and formatting (RFC 3261 section 19.1 subset).

Supports the forms the paper's scenarios use::

    sip:HAL@us.ibm.com
    sip:burdell@cc.gatech.edu:5060
    sip:10.0.0.7:5060;transport=udp
    sips:alice@example.com;lr

URI parameters are kept in an ordered dict; header-style parameters
(after ``?``) are parsed but rarely used in the evaluation.

Every call parses afresh; nothing here caches.  A caller that needs one
URI many times keeps the parsed object (a UAC its destinations, a
message the views it was built with), and everything treats a parsed
URI as immutable (``with_params`` returns a copy), so sharing is safe.
"""

from __future__ import annotations

from typing import Dict, Optional


class SipUriError(ValueError):
    """Raised when a string cannot be parsed as a SIP URI."""


class SipUri:
    """A parsed SIP URI.

    Equality and hashing compare scheme, user, host and port (parameters
    are excluded, mirroring the loose matching location services use).
    """

    __slots__ = ("scheme", "user", "host", "port", "params", "headers")

    def __init__(
        self,
        host: str,
        user: Optional[str] = None,
        port: Optional[int] = None,
        scheme: str = "sip",
        params: Optional[Dict[str, Optional[str]]] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        if scheme not in ("sip", "sips"):
            raise SipUriError(f"unsupported scheme: {scheme}")
        if not host:
            raise SipUriError("host is required")
        if port is not None and not (0 < port < 65536):
            raise SipUriError(f"port out of range: {port}")
        self.scheme = scheme
        self.user = user
        self.host = host
        self.port = port
        self.params = dict(params) if params else {}
        self.headers = dict(headers) if headers else {}

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """user@host[:port] without scheme or parameters."""
        hostport = self.host if self.port is None else f"{self.host}:{self.port}"
        return f"{self.user}@{hostport}" if self.user else hostport

    @property
    def aor(self) -> str:
        """Address-of-record: scheme:user@host (no port, no params)."""
        if self.user:
            return f"{self.scheme}:{self.user}@{self.host}"
        return f"{self.scheme}:{self.host}"

    @property
    def domain(self) -> str:
        return self.host

    def with_params(self, **params: Optional[str]) -> "SipUri":
        """Copy with extra/overridden URI parameters."""
        merged = dict(self.params)
        merged.update(params)
        return SipUri(self.host, self.user, self.port, self.scheme, merged, self.headers)

    # ------------------------------------------------------------------
    # Formatting / equality
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        out = [self.scheme, ":"]
        if self.user:
            out.append(self.user)
            out.append("@")
        out.append(self.host)
        if self.port is not None:
            out.append(f":{self.port}")
        for key, value in self.params.items():
            out.append(f";{key}" if value is None else f";{key}={value}")
        if self.headers:
            pairs = "&".join(f"{k}={v}" for k, v in self.headers.items())
            out.append(f"?{pairs}")
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SipUri({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SipUri):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.user == other.user
            and self.host.lower() == other.host.lower()
            and self.port == other.port
        )

    def __hash__(self) -> int:
        return hash((self.scheme, self.user, self.host.lower(), self.port))


def parse_uri(text: str) -> SipUri:
    """Parse a SIP URI string; raises :class:`SipUriError` on failure.

    >>> uri = parse_uri("sip:burdell@cc.gatech.edu:5060;transport=udp")
    >>> (uri.user, uri.host, uri.port, uri.params["transport"])
    ('burdell', 'cc.gatech.edu', 5060, 'udp')
    """
    text = text.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]

    scheme, sep, rest = text.partition(":")
    if not sep:
        raise SipUriError(f"missing scheme in {text!r}")
    scheme = scheme.lower()
    if scheme not in ("sip", "sips"):
        raise SipUriError(f"unsupported scheme in {text!r}")

    rest, _, header_part = rest.partition("?")
    headers: Dict[str, str] = {}
    if header_part:
        for pair in header_part.split("&"):
            key, _, value = pair.partition("=")
            if not key:
                raise SipUriError(f"bad header parameter in {text!r}")
            headers[key] = value

    hostpart, *param_parts = rest.split(";")
    params: Dict[str, Optional[str]] = {}
    for part in param_parts:
        if not part:
            raise SipUriError(f"empty parameter in {text!r}")
        key, sep, value = part.partition("=")
        params[key] = value if sep else None

    user: Optional[str] = None
    if "@" in hostpart:
        user, _, hostpart = hostpart.rpartition("@")
        if not user:
            raise SipUriError(f"empty user part in {text!r}")

    port: Optional[int] = None
    if ":" in hostpart:
        host, _, port_text = hostpart.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise SipUriError(f"bad port in {text!r}") from None
    else:
        host = hostpart
    if not host:
        raise SipUriError(f"missing host in {text!r}")

    return SipUri(host, user, port, scheme, params, headers)
