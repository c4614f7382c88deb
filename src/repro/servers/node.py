"""Base class for simulated network elements.

A node owns a CPU model, a metrics registry and its attachment to the
network fabric.  Message handling is two-phase:

1. :meth:`Node.receive` (called by the network) classifies the payload,
   asks the cost model what the message costs, and submits a CPU job --
   or records a drop if admission control rejects it;
2. when the job completes, :meth:`Node.handle_message` runs the actual
   protocol logic.

Endpoint nodes (SIPp clients/servers) set ``model_cpu=False``: the paper
deliberately provisioned enough SIPp machines that the endpoints never
saturate ("the SIPp clients were operating far below 100% CPU
utilization"), so endpoints here process instantly and for free.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.costmodel import CostModel, Feature, MessageKind
from repro.core.overload import OverloadReport
from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, Packet
from repro.sim.rng import RngStream
from repro.sip.message import SipMessage, SipRequest, SipResponse

# Default service-time variability and admission bound; see DESIGN.md
# ("Retransmission feedback").
DEFAULT_NOISE_SIGMA = 0.30
DEFAULT_MAX_QUEUE_DELAY = 1.0


class Node:
    """A named element on the simulated network."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        cost_model: Optional[CostModel] = None,
        rng: Optional[RngStream] = None,
        model_cpu: bool = True,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        max_queue_delay: float = DEFAULT_MAX_QUEUE_DELAY,
    ):
        self.name = name
        self.loop = loop
        self.network = network
        self.cost_model = cost_model or CostModel()
        self.rng = (rng or RngStream(0)).spawn(f"node/{name}")
        self.metrics = MetricsRegistry(name)
        self.model_cpu = model_cpu
        self.alive = True
        self.cpu = CpuModel(
            loop,
            self.rng.spawn("cpu"),
            noise_sigma=noise_sigma if model_cpu else 0.0,
            max_queue_delay=max_queue_delay if model_cpu else 0.0,
        )
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
        if not self.model_cpu:
            self.handle_message(packet.payload, packet.src)
            return
        kind, features, extra_vias = self.classify(packet.payload)
        cost, components = self.cost_model.message_cost(kind, features, extra_vias)
        func = None
        if self.cpu.profiler is not None:
            func = ("control-msg" if kind is MessageKind.CONTROL
                    else "forward")
        job = self.cpu.submit(
            cost, self.handle_message, packet.payload, packet.src,
            components=components, func=func,
        )
        if job is None:
            self.metrics.counter("messages_dropped_overload").increment()
            self.on_rejected(packet.payload, packet.src)

    def classify(self, payload) -> Tuple[MessageKind, frozenset, int]:
        """(kind, features, extra_vias) for cost charging.

        Subclasses refine this; the base implementation covers the
        common cases so simple nodes work out of the box.
        """
        if isinstance(payload, OverloadReport):
            return MessageKind.CONTROL, frozenset(), 0
        if isinstance(payload, SipMessage):
            extra_vias = max(0, len(payload.get_all("Via")) - 1)
            kind = classify_sip_kind(payload)
            return kind, frozenset({Feature.BASE}), extra_vias
        return MessageKind.GENERIC, frozenset(), 0

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def handle_message(self, payload, src: str) -> None:
        raise NotImplementedError

    def on_rejected(self, payload, src: str) -> None:
        """Called when admission control drops a message (default: silent,
        like a full UDP socket buffer)."""

    # ------------------------------------------------------------------
    # Crash/restart lifecycle (driven by repro.sim.faults)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down: drop queued CPU work, discard soft state.

        Everything volatile dies with the process: queued jobs never run
        and (via the :meth:`on_crash` hook) subclasses discard whatever
        in-memory protocol state they held.  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        self.metrics.counter("crashes").increment()
        self.metrics.gauge("up").set(0.0, self.loop.now)
        aborted = self.cpu.halt()
        if aborted:
            self.metrics.counter("cpu_jobs_lost_on_crash").increment(aborted)
        self.on_crash()

    def restart(self) -> None:
        """Bring the node back with empty volatile state.  Idempotent."""
        if self.alive:
            return
        self.alive = True
        self.metrics.counter("restarts").increment()
        self.metrics.gauge("up").set(1.0, self.loop.now)
        self.cpu.resume()
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

    def tick(self, now: float) -> None:
        """Close a measurement window (driven by the harness)."""
        if self.model_cpu:
            self.cpu.tick(now)

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
