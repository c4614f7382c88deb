"""Minimal SDP (RFC 4566 subset) for realistic INVITE/200 bodies.

The paper's control-plane story never touches the media path, but real
INVITEs carry an SDP offer and the 200 an answer; message *size* is
what the cost model's Via/parsing overhead is about, so the simulated
calls carry genuine bodies.  Supported: v/o/s/c/t lines, one audio
media section with codec list, a=rtpmap attributes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Default codec set (payload type -> rtpmap string).
DEFAULT_CODECS = {
    0: "PCMU/8000",
    8: "PCMA/8000",
    101: "telephone-event/8000",
}


class SdpError(ValueError):
    """Raised when a body cannot be parsed as SDP."""


class SessionDescription:
    """A parsed (or constructed) SDP session description."""

    def __init__(
        self,
        origin_user: str = "-",
        session_id: int = 0,
        version: int = 0,
        address: str = "0.0.0.0",
        port: int = 49170,
        codecs: Optional[Dict[int, str]] = None,
        session_name: str = "call",
    ):
        if not 0 < port < 65536:
            raise SdpError(f"port out of range: {port}")
        self.origin_user = origin_user
        self.session_id = session_id
        self.version = version
        self.address = address
        self.port = port
        self.codecs = dict(codecs) if codecs is not None else dict(DEFAULT_CODECS)
        self.session_name = session_name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def offer(cls, host: str, port: int = 49170,
              codecs: Optional[Dict[int, str]] = None) -> "SessionDescription":
        """A caller's offer from ``host``."""
        return cls(origin_user=host, address=host, port=port, codecs=codecs)

    def answer(self, host: str, port: int = 49180) -> "SessionDescription":
        """An answer selecting this offer's first codec."""
        if not self.codecs:
            raise SdpError("cannot answer an offer without codecs")
        first = min(self.codecs)
        return SessionDescription(
            origin_user=host,
            session_id=self.session_id + 1,
            address=host,
            port=port,
            codecs={first: self.codecs[first]},
            session_name=self.session_name,
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_body(self) -> str:
        lines = [
            "v=0",
            f"o={self.origin_user} {self.session_id} {self.version} "
            f"IN IP4 {self.address}",
            f"s={self.session_name}",
            f"c=IN IP4 {self.address}",
            "t=0 0",
            f"m=audio {self.port} RTP/AVP "
            + " ".join(str(pt) for pt in sorted(self.codecs)),
        ]
        for payload_type in sorted(self.codecs):
            lines.append(f"a=rtpmap:{payload_type} {self.codecs[payload_type]}")
        return "\r\n".join(lines) + "\r\n"

    @classmethod
    def parse(cls, body: str) -> "SessionDescription":
        fields: Dict[str, List[str]] = {}
        for line in body.replace("\r\n", "\n").split("\n"):
            line = line.strip()
            if not line:
                continue
            if len(line) < 2 or line[1] != "=":
                raise SdpError(f"malformed SDP line: {line!r}")
            fields.setdefault(line[0], []).append(line[2:])

        for required in ("v", "o", "m"):
            if required not in fields:
                raise SdpError(f"missing {required}= line")
        if fields["v"][0] != "0":
            raise SdpError(f"unsupported SDP version {fields['v'][0]!r}")

        origin_parts = fields["o"][0].split()
        if len(origin_parts) != 6:
            raise SdpError(f"malformed o= line: {fields['o'][0]!r}")
        origin_user, session_id, version = origin_parts[0], origin_parts[1], origin_parts[2]
        address = origin_parts[5]
        if "c" in fields:
            conn = fields["c"][0].split()
            if len(conn) == 3:
                address = conn[2]

        media = fields["m"][0].split()
        if len(media) < 4 or media[0] != "audio":
            raise SdpError(f"unsupported m= line: {fields['m'][0]!r}")
        try:
            port = int(media[1])
            payload_types = [int(pt) for pt in media[3:]]
        except ValueError as exc:
            raise SdpError(f"bad m= numbers: {exc}") from None

        codecs: Dict[int, str] = {pt: "" for pt in payload_types}
        for attribute in fields.get("a", []):
            if attribute.startswith("rtpmap:"):
                try:
                    pt_text, encoding = attribute[len("rtpmap:"):].split(None, 1)
                    pt = int(pt_text)
                except ValueError:
                    raise SdpError(f"bad rtpmap: {attribute!r}") from None
                if pt in codecs:
                    codecs[pt] = encoding

        try:
            return cls(
                origin_user=origin_user,
                session_id=int(session_id),
                version=int(version),
                address=address,
                port=port,
                codecs=codecs,
                session_name=fields.get("s", ["-"])[0],
            )
        except ValueError as exc:
            raise SdpError(str(exc)) from None

    # ------------------------------------------------------------------
    def common_codecs(self, other: "SessionDescription") -> List[int]:
        """Payload types present in both descriptions."""
        return sorted(set(self.codecs) & set(other.codecs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionDescription):
            return NotImplemented
        return self.to_body() == other.to_body()

    def __hash__(self) -> int:
        return hash(self.to_body())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SessionDescription {self.address}:{self.port} "
            f"codecs={sorted(self.codecs)}>"
        )
