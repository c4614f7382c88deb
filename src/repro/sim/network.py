"""Point-to-point links with latency, jitter and loss.

The paper's testbed uses Gigabit Ethernet on a private network so the
wire is never the bottleneck; we keep that property (default one-way
latency 0.25 ms, matching the ~1.5 ms SIPp round trip the paper reports
across the proxy chain) but expose loss and jitter so the test suite can
inject failures and exercise the SIP retransmission machinery.

Fault injection (see :mod:`repro.sim.faults`) adds two drop channels on
top of per-link random loss:

- **partitions**: a blocked (src, dst) pair drops every packet at send
  time until healed,
- **dead destinations**: delivery checks the receiver's liveness *at
  arrival time*, so a packet already in flight when its destination
  crashes is lost exactly like a frame arriving at a powered-off host.

Both channels are deterministic (no RNG draws), so enabling them never
perturbs the random streams of an otherwise identical run.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.events import EventLoop
from repro.sim.rng import RngStream

DEFAULT_ONE_WAY_LATENCY = 0.00025  # 0.25 ms, see module docstring


class Packet:
    """An addressed payload in flight.

    ``payload`` is either a :class:`repro.sip.message.SipMessage` or a
    small control object (e.g. a SERvartuka overload report).
    """

    __slots__ = ("src", "dst", "payload", "sent_at")

    def __init__(self, src: str, dst: str, payload: Any, sent_at: float):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Packet {self.src}->{self.dst} {type(self.payload).__name__}>"


class Link:
    """Unidirectional link parameters.

    ``latency`` must be strictly positive: a zero-latency link would
    deliver in the same event-loop instant as the send, breaking the
    happens-before ordering every protocol state machine relies on.
    """

    __slots__ = ("latency", "jitter", "loss")

    def __init__(self, latency: float = DEFAULT_ONE_WAY_LATENCY, jitter: float = 0.0, loss: float = 0.0):
        if not (math.isfinite(latency) and latency > 0):
            raise ValueError(f"latency must be finite and > 0: {latency}")
        if not (math.isfinite(jitter) and jitter >= 0):
            raise ValueError(f"jitter must be finite and >= 0: {jitter}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss probability out of range: {loss}")
        self.latency = latency
        self.jitter = jitter
        self.loss = loss


class Network:
    """Name-addressed delivery fabric between simulated nodes.

    Nodes register under a unique name and must expose
    ``receive(packet)``.  Per-pair links override the default link; pairs
    without an explicit link use :attr:`default_link`.
    """

    def __init__(self, loop: EventLoop, rng: Optional[RngStream] = None):
        self.loop = loop
        self.rng = rng if rng is not None else RngStream(0, "network")
        self.default_link = Link()
        self._nodes: Dict[str, Any] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._blocked: Set[Tuple[str, str]] = set()
        #: Sharded-engine hook (repro.sim.shard).  When set, every send
        #: whose destination lives in another shard is diverted into a
        #: cross-shard envelope instead of a local delivery event.  None
        #: (the default) costs one attribute test per send and changes
        #: nothing else.
        self.shard_router: Optional[
            Callable[[str, str, Any, float], bool]
        ] = None
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_dropped_partition = 0
        self.packets_dropped_dead = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def register(self, name: str, node: Any) -> None:
        if name in self._nodes:
            raise ValueError(f"duplicate node name: {name}")
        if not hasattr(node, "receive"):
            raise TypeError(f"node {name} has no receive() method")
        self._nodes[name] = node

    def node(self, name: str) -> Any:
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def node_names(self) -> List[str]:
        return list(self._nodes)

    def node_is_up(self, name: str) -> bool:
        """True when the node exists and is not crashed.

        Nodes without a lifecycle (plain receivers in unit tests) are
        always considered up.
        """
        node = self._nodes.get(name)
        if node is None:
            return False
        return getattr(node, "alive", True)

    def set_link(
        self,
        src: str,
        dst: str,
        latency: float = DEFAULT_ONE_WAY_LATENCY,
        jitter: float = 0.0,
        loss: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Configure the link used for ``src -> dst`` (and back if symmetric)."""
        self._links[(src, dst)] = Link(latency, jitter, loss)
        if symmetric:
            self._links[(dst, src)] = Link(latency, jitter, loss)

    def link_for(self, src: str, dst: str) -> Link:
        return self._links.get((src, dst), self.default_link)

    def set_loss(
        self, src: str, dst: str, loss: float, symmetric: bool = True
    ) -> None:
        """Change the loss rate of an existing pair mid-run.

        Pairs still on the shared :attr:`default_link` get their own
        private link first, so ramping loss on one pair never affects
        the rest of the fabric.
        """
        for pair in ((src, dst), (dst, src)) if symmetric else ((src, dst),):
            link = self._links.get(pair)
            if link is None:
                link = Link(self.default_link.latency, self.default_link.jitter)
                self._links[pair] = link
            # Route the value through the constructor's range check.
            link.loss = Link(link.latency, link.jitter, loss).loss

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str, symmetric: bool = True) -> None:
        """Block delivery for ``a -> b`` (and back if symmetric)."""
        self._blocked.add((a, b))
        if symmetric:
            self._blocked.add((b, a))

    def heal(self, a: str, b: str, symmetric: bool = True) -> None:
        self._blocked.discard((a, b))
        if symmetric:
            self._blocked.discard((b, a))

    def is_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any) -> Optional[Packet]:
        """Send a payload; returns the packet, or None if lost in flight."""
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node: {dst}")
        pair = (src, dst)
        link = self._links.get(pair)
        if link is None:
            link = self.default_link
        self.packets_sent += 1

        if pair in self._blocked:
            self.packets_dropped += 1
            self.packets_dropped_partition += 1
            return None

        if link.loss > 0 and self.rng.bernoulli(link.loss):
            self.packets_dropped += 1
            return None

        delay = link.latency
        if link.jitter > 0:
            delay += self.rng.uniform(0.0, link.jitter)
        router = self.shard_router
        if router is not None and router(src, dst, payload, delay):
            # Diverted to another shard; the sender's packet accounting
            # above stands, delivery happens in the owning shard.
            return None
        loop = self.loop
        # The packet is materialized only for sends that actually enter
        # the fabric; dropped sends never needed one (no RNG or metric
        # depends on construction, so this is unobservable).
        packet = Packet(src, dst, payload, loop.now)
        loop.schedule_at(loop.now + delay, self._deliver, packet)
        return packet

    def _deliver(self, packet: Packet) -> None:
        """Hand the packet to its receiver, unless it died in transit."""
        receiver = self._nodes.get(packet.dst)
        if receiver is None or not getattr(receiver, "alive", True):
            self.packets_dropped += 1
            self.packets_dropped_dead += 1
        else:
            receiver.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network nodes={len(self._nodes)} sent={self.packets_sent}>"
