"""Message-flow tracing: record every packet and render call ladders.

A :class:`MessageTrace` hooks a :class:`~repro.sim.network.Network` and
records one :class:`TraceEntry` per packet handed to the fabric --
SIP requests/responses and SERvartuka control messages alike.  From the
recording you can:

- pull the complete flow of one call (:meth:`MessageTrace.call_flow`),
- render a SIP-style ladder diagram (:func:`render_ladder`), the
  standard way VoIP engineers read captures,
- compute per-hop statistics (messages per link, retransmission
  spotting via repeated transaction keys).

Tracing is off by default in experiments (it allocates per message);
scenarios enable it with ``Scenario.enable_trace()`` or by constructing
a trace around any network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.network import Network
from repro.sip.message import SipMessage, SipRequest, SipResponse


class TraceEntry:
    """One packet on the wire."""

    __slots__ = ("time", "src", "dst", "payload", "dropped")

    def __init__(self, time: float, src: str, dst: str, payload: Any, dropped: bool):
        self.time = time
        self.src = src
        self.dst = dst
        self.payload = payload
        self.dropped = dropped

    @property
    def call_id(self) -> Optional[str]:
        if isinstance(self.payload, SipMessage):
            try:
                return self.payload.call_id
            except Exception:
                return None
        return None

    @property
    def label(self) -> str:
        """Short human-readable description of the payload."""
        payload = self.payload
        if isinstance(payload, SipRequest):
            return payload.method
        if isinstance(payload, SipResponse):
            return f"{payload.status} {payload.reason}"
        return type(payload).__name__

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " DROPPED" if self.dropped else ""
        return (
            f"<TraceEntry {self.time:.4f} {self.src}->{self.dst} "
            f"{self.label}{flag}>"
        )


class MessageTrace:
    """Records packets passing through a network.

    Installed by wrapping :meth:`Network.send`; uninstall with
    :meth:`detach`.  ``max_entries`` bounds memory for long runs
    (oldest entries are evicted).  ``sample_every=N`` records only every
    N-th packet -- the zero-allocation mode for long benchmark runs,
    where per-packet TraceEntry churn would dominate; sampled traces
    still expose link/retransmission structure but not complete call
    flows.
    """

    def __init__(self, network: Network, max_entries: int = 100_000,
                 sample_every: int = 1):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.network = network
        self.max_entries = max_entries
        self.sample_every = sample_every
        self.entries: List[TraceEntry] = []
        self.evicted = 0
        self.skipped = 0
        self._seen = 0
        self._original_send: Optional[Callable] = None
        self.attach()

    # ------------------------------------------------------------------
    # Hooking
    # ------------------------------------------------------------------
    def attach(self) -> None:
        if self._original_send is not None:
            return
        original = self.network.send
        self._original_send = original

        def traced_send(src: str, dst: str, payload: Any):
            packet = original(src, dst, payload)
            self._seen += 1
            if self.sample_every > 1 and self._seen % self.sample_every:
                self.skipped += 1
                return packet
            # No node mutates a message it sent or received (edits go
            # into a copy), so the entry can hold the object on the wire.
            entry = TraceEntry(
                self.network.loop.now, src, dst, payload, dropped=packet is None
            )
            self.entries.append(entry)
            if len(self.entries) > self.max_entries:
                overflow = len(self.entries) - self.max_entries
                del self.entries[:overflow]
                self.evicted += overflow
            return packet

        self.network.send = traced_send

    def detach(self) -> None:
        if self._original_send is not None:
            self.network.send = self._original_send
            self._original_send = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def call_flow(self, call_id: str) -> List[TraceEntry]:
        """All packets belonging to one call, in time order."""
        return [e for e in self.entries if e.call_id == call_id]

    def call_ids(self) -> List[str]:
        """Distinct call ids in first-seen order."""
        seen: Dict[str, None] = {}
        for entry in self.entries:
            cid = entry.call_id
            if cid is not None and cid not in seen:
                seen[cid] = None
        return list(seen)

    def link_counts(self) -> Dict[Tuple[str, str], int]:
        """(src, dst) -> number of packets."""
        counts: Dict[Tuple[str, str], int] = {}
        for entry in self.entries:
            key = (entry.src, entry.dst)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def retransmissions(self) -> List[TraceEntry]:
        """Entries whose (src, dst, transaction key) repeats an earlier
        request send -- wire-level retransmission spotting."""
        seen = set()
        repeats = []
        for entry in self.entries:
            if not isinstance(entry.payload, SipRequest):
                continue
            try:
                key = (entry.src, entry.dst) + entry.payload.transaction_key()
                key += (entry.payload.method,)
            except Exception:
                continue
            if key in seen:
                repeats.append(entry)
            else:
                seen.add(key)
        return repeats

    def drops(self) -> List[TraceEntry]:
        return [e for e in self.entries if e.dropped]


def render_ladder(
    entries: List[TraceEntry],
    nodes: Optional[List[str]] = None,
    width: int = 14,
) -> str:
    """Render a SIP ladder (sequence) diagram for a list of entries.

    >>> # doctest-style shape, actual content covered in tests
    """
    if not entries:
        return "(no messages)"
    if nodes is None:
        nodes = []
        for entry in entries:
            for name in (entry.src, entry.dst):
                if name not in nodes:
                    nodes.append(name)
    columns = {name: index for index, name in enumerate(nodes)}

    def position(index: int) -> int:
        return index * width + width // 2

    lines = []
    header = [" "] * (len(nodes) * width)
    for name, index in columns.items():
        start = position(index) - min(len(name) // 2, position(index))
        for offset, char in enumerate(name[: width - 1]):
            header[start + offset] = char
    lines.append("".join(header).rstrip())

    for entry in entries:
        if entry.src not in columns or entry.dst not in columns:
            continue
        a = position(columns[entry.src])
        b = position(columns[entry.dst])
        left, right = min(a, b), max(a, b)
        row = [" "] * (len(nodes) * width)
        for index in range(len(nodes)):
            row[position(index)] = "|"
        for x in range(left + 1, right):
            row[x] = "-"
        row[b] = ">" if b > a else "<"
        label = entry.label
        if entry.dropped:
            label += " X"
        text = "".join(row).rstrip()
        lines.append(f"{text}  {entry.time * 1e3:9.3f}ms  {label}")
    return "\n".join(lines)
