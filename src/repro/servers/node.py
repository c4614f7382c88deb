"""Base class for simulated network elements.

A node owns a metrics registry and its attachment to the network
fabric.  :meth:`Node.receive` (called by the network) counts the packet
and hands every SIP message to :meth:`Node.handle_message`, which runs
the protocol logic at once and for free.

Only the proxy (:class:`~repro.servers.proxy.ProxyServer`) has a CPU:
it overrides :meth:`receive` to charge each message to its
:class:`~repro.sim.cpu.CpuModel`.  The end points (SIPp clients and
servers) do not: the paper deliberately provisioned enough SIPp
machines that the endpoints never saturate ("the SIPp clients were
operating far below 100% CPU utilization").
"""

from __future__ import annotations

from typing import Optional

from repro.core.costmodel import MessageKind
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, Packet
from repro.sim.rng import RngStream
from repro.sip.message import SipMessage, SipRequest, SipResponse


class Node:
    """A named element on the simulated network."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        rng: Optional[RngStream] = None,
    ):
        self.name = name
        self.loop = loop
        self.network = network
        self.rng = (rng or RngStream(0)).spawn(f"node/{name}")
        self.metrics = MetricsRegistry(name)
        self.alive = True
        network.register(name, self)

    # ------------------------------------------------------------------
    # Network-facing entry point
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if not self.alive:
            # The network drops packets to dead nodes before delivery;
            # anything landing here is a bug in the fault machinery.
            self.metrics.counter("activity_while_dead").increment()
            return
        self.metrics.counter("packets_received").increment()
        payload = packet.payload
        if isinstance(payload, SipMessage):
            # Control traffic (overload reports) is not for endpoints.
            self.handle_message(payload, packet.src)

    def handle_message(self, message: SipMessage, src: str) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Crash/restart lifecycle (driven by repro.sim.faults)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down and (via the :meth:`on_crash` hook)
        discard whatever in-memory protocol state it held.  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        self.metrics.counter("crashes").increment()
        self.metrics.gauge("up").set(0.0, self.loop.now)
        self.on_crash()

    def restart(self) -> None:
        """Bring the node back with empty volatile state.  Idempotent."""
        if self.alive:
            return
        self.alive = True
        self.metrics.counter("restarts").increment()
        self.metrics.gauge("up").set(1.0, self.loop.now)
        self.on_restart()

    def on_crash(self) -> None:
        """Subclass hook: discard volatile protocol state."""

    def on_restart(self) -> None:
        """Subclass hook: re-arm periodic work after a restart."""

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def send(self, dst: str, payload) -> None:
        if not self.alive:
            self.metrics.counter("sends_while_dead").increment()
            return
        self.network.send(self.name, dst, payload)

    def send_response(self, response: SipResponse,
                      fallback: Optional[str] = None) -> Optional[str]:
        """Send ``response`` to its top Via's host if the network knows
        it, else to ``fallback``; return where it went.  With neither,
        count it in ``unroutable_responses``, send nothing, return None."""
        via = response.top_via
        if via is not None and self.network.has_node(via.host):
            target = via.host
        else:
            target = fallback
        if target is None:
            self.metrics.counter("unroutable_responses").increment()
        else:
            self.send(target, response)
        return target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


def classify_sip_kind(message: SipMessage) -> MessageKind:
    """Map a SIP message to its cost-model kind."""
    if isinstance(message, SipRequest):
        if message.method == "INVITE":
            return MessageKind.INVITE
        if message.method == "ACK":
            return MessageKind.ACK
        if message.method == "BYE":
            return MessageKind.BYE
        if message.method == "REGISTER":
            return MessageKind.REGISTER
        return MessageKind.GENERIC
    if isinstance(message, SipResponse):
        if message.status == 100:
            return MessageKind.PROVISIONAL_100
        if message.is_provisional:
            return MessageKind.PROVISIONAL_180
        try:
            method = message.cseq.method
        except Exception:
            method = "INVITE"
        if method == "BYE":
            return MessageKind.FINAL_200_BYE
        return MessageKind.FINAL_200_INVITE
    return MessageKind.GENERIC
