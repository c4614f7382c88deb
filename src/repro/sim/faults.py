"""Deterministic fault injection: crashes, partitions, lossy links.

The paper's trade-off has a reliability flip side it never measures:
pushing transaction state downstream raises throughput, but every call
whose state a crashed node held is lost, while calls handled statelessly
survive on RFC 3261 end-to-end retransmission.  This module provides the
machinery to measure that:

- :class:`FaultSchedule` -- a declarative, time-ordered list of fault
  events (crash/restart a node, partition/heal a link pair, change or
  ramp per-link loss).  Schedules are plain data: building one performs
  no side effects, so the same schedule object can be applied to several
  scenarios (the resilience experiment applies one schedule to three
  placements and compares outcomes under identical failures).
- :class:`FaultInjector` -- binds a schedule to a live event loop and
  network.  It executes the events, acts as the failure detector (on a
  crash it calls ``notify_peer_down`` on every surviving node that
  implements it, the way a keepalive timeout would), and keeps a log of
  everything it did.

Determinism: fault times are part of the schedule, not drawn at run
time, and executing a fault draws no randomness.  Two runs with the same
seed and the same schedule are therefore bit-identical -- a property the
test suite asserts.  For randomized campaigns, :meth:`FaultSchedule.
random_crashes` derives crash times from a named
:class:`~repro.sim.rng.RngStream` *before* the run starts, keeping the
schedule reproducible and independent of simulation draws.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream

#: Recognised fault kinds, in the order they are documented.
KINDS = ("crash", "restart", "partition", "heal", "set_loss")


class FaultEvent:
    """One scheduled fault: ``kind`` at simulated ``time`` with ``args``."""

    __slots__ = ("time", "kind", "args")

    def __init__(self, time: float, kind: str, args: Tuple):
        if not (math.isfinite(time) and time >= 0):
            raise ValueError(f"fault time must be finite and >= 0: {time}")
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; one of {KINDS}")
        self.time = time
        self.kind = kind
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultEvent t={self.time:g} {self.kind}{self.args}>"


class FaultSchedule:
    """A deterministic, declarative timeline of faults.

    All builder methods return ``self`` so schedules chain:

        schedule = (FaultSchedule()
                    .set_loss(0.0, "P1", "P2", 0.10)
                    .crash(6.0, "P1", downtime=1.5)
                    .crash(12.0, "P1", downtime=1.5))
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def crash(
        self, time: float, node: str, downtime: Optional[float] = None
    ) -> "FaultSchedule":
        """Crash ``node`` at ``time``; restart it after ``downtime`` if given."""
        self._events.append(FaultEvent(time, "crash", (node,)))
        if downtime is not None:
            if downtime <= 0:
                raise ValueError(f"downtime must be positive: {downtime}")
            self._events.append(FaultEvent(time + downtime, "restart", (node,)))
        return self

    def restart(self, time: float, node: str) -> "FaultSchedule":
        self._events.append(FaultEvent(time, "restart", (node,)))
        return self

    def partition(
        self, time: float, a: str, b: str, duration: Optional[float] = None
    ) -> "FaultSchedule":
        """Block the ``a <-> b`` pair at ``time``; heal after ``duration``."""
        self._events.append(FaultEvent(time, "partition", (a, b)))
        if duration is not None:
            if duration <= 0:
                raise ValueError(f"duration must be positive: {duration}")
            self._events.append(FaultEvent(time + duration, "heal", (a, b)))
        return self

    def heal(self, time: float, a: str, b: str) -> "FaultSchedule":
        self._events.append(FaultEvent(time, "heal", (a, b)))
        return self

    def set_loss(
        self, time: float, src: str, dst: str, loss: float, symmetric: bool = True
    ) -> "FaultSchedule":
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss probability out of range: {loss}")
        self._events.append(FaultEvent(time, "set_loss", (src, dst, loss, symmetric)))
        return self

    def ramp_loss(
        self,
        start: float,
        end: float,
        src: str,
        dst: str,
        start_loss: float,
        end_loss: float,
        steps: int = 8,
        symmetric: bool = True,
    ) -> "FaultSchedule":
        """Piecewise-linear loss ramp from ``start_loss`` to ``end_loss``."""
        if end <= start:
            raise ValueError("ramp end must be after start")
        if steps < 1:
            raise ValueError("need at least one ramp step")
        for i in range(steps + 1):
            frac = i / steps
            t = start + frac * (end - start)
            loss = start_loss + frac * (end_loss - start_loss)
            self.set_loss(t, src, dst, loss, symmetric)
        return self

    @classmethod
    def random_crashes(
        cls,
        rng: RngStream,
        nodes: Sequence[str],
        count: int,
        start: float,
        end: float,
        downtime: float = 1.0,
    ) -> "FaultSchedule":
        """A reproducible random crash campaign.

        Crash times and victims come from ``rng`` (a named stream), so
        the schedule depends only on the root seed and the stream name
        -- never on anything that happens during the run.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if end <= start:
            raise ValueError("end must be after start")
        if not nodes:
            raise ValueError("need at least one node")
        schedule = cls()
        for _ in range(count):
            t = rng.uniform(start, end)
            victim = rng.choice(list(nodes))
            schedule.crash(t, victim, downtime=downtime)
        return schedule

    # ------------------------------------------------------------------
    # Introspection / application
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[FaultEvent]:
        """Events in execution order (stable for equal times)."""
        return sorted(self._events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self._events)

    def node_names(self) -> List[str]:
        """Names of all nodes the schedule crashes or restarts."""
        names = []
        for event in self._events:
            if event.kind in ("crash", "restart") and event.args[0] not in names:
                names.append(event.args[0])
        return names

    def apply(self, loop: EventLoop, network: Network) -> "FaultInjector":
        return FaultInjector(loop, network, self)


class FaultInjector:
    """Executes a :class:`FaultSchedule` against a live simulation.

    Besides pulling the trigger, the injector plays the failure
    detector: when a node crashes, every surviving node exposing
    ``notify_peer_down(name)`` is told, which is how the parallel-fork
    load balancer skips dead upstreams and how a SERvartuka node
    reclaims the ``myshare`` it had delegated to a dead peer.
    """

    def __init__(self, loop: EventLoop, network: Network, schedule: FaultSchedule):
        self.loop = loop
        self.network = network
        self.schedule = schedule
        self.log: List[Tuple[float, str]] = []
        self.crashes = 0
        self.restarts = 0
        self.partitions = 0
        self.heals = 0
        self.loss_changes = 0
        base = loop.now
        for event in schedule.events:
            # Times are relative to injector creation (scenario start).
            when = max(base, base + event.time)
            loop.schedule_at(when, self._fire, event)

    # ------------------------------------------------------------------
    # Event execution
    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        handler = {
            "crash": self._do_crash,
            "restart": self._do_restart,
            "partition": self._do_partition,
            "heal": self._do_heal,
            "set_loss": self._do_set_loss,
        }[event.kind]
        handler(*event.args)

    def _note(self, text: str) -> None:
        self.log.append((self.loop.now, text))

    def _do_crash(self, name: str) -> None:
        node = self.network.node(name)
        if not getattr(node, "alive", True):
            self._note(f"crash {name} (already down)")
            return
        node.crash()
        self.crashes += 1
        self._note(f"crash {name}")
        for other_name in self.network.node_names():
            if other_name == name:
                continue
            other = self.network.node(other_name)
            if getattr(other, "alive", True) and hasattr(other, "notify_peer_down"):
                other.notify_peer_down(name)

    def _do_restart(self, name: str) -> None:
        node = self.network.node(name)
        if getattr(node, "alive", True):
            self._note(f"restart {name} (already up)")
            return
        node.restart()
        self.restarts += 1
        self._note(f"restart {name}")
        for other_name in self.network.node_names():
            if other_name == name:
                continue
            other = self.network.node(other_name)
            if getattr(other, "alive", True) and hasattr(other, "notify_peer_up"):
                other.notify_peer_up(name)

    def _do_partition(self, a: str, b: str) -> None:
        self.network.partition(a, b)
        self.partitions += 1
        self._note(f"partition {a} <-> {b}")

    def _do_heal(self, a: str, b: str) -> None:
        self.network.heal(a, b)
        self.heals += 1
        self._note(f"heal {a} <-> {b}")

    def _do_set_loss(self, src: str, dst: str, loss: float, symmetric: bool) -> None:
        self.network.set_loss(src, dst, loss, symmetric=symmetric)
        self.loss_changes += 1
        self._note(f"set_loss {src}->{dst} {loss:g}")

    def render_log(self) -> str:
        return "\n".join(f"t={t:8.3f}  {text}" for t, text in self.log)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultInjector events={len(self.schedule)} "
            f"crashes={self.crashes} restarts={self.restarts}>"
        )
