"""Discrete-event simulation substrate.

This package is the stand-in for the paper's physical testbed (OpenSER
hosts, SIPp load generators, a Gigabit LAN).  It provides:

- :mod:`repro.sim.events` -- a deterministic event loop with a simulated
  clock and cancellable timers,
- :mod:`repro.sim.cpu` -- a single-server FIFO CPU model with utilization
  accounting (the resource whose saturation the paper measures),
- :mod:`repro.sim.network` -- point-to-point links with latency, jitter
  and loss,
- :mod:`repro.sim.metrics` -- counters, histograms and time series used
  by the measurement harness,
- :mod:`repro.sim.rng` -- reproducible, named random streams.

Everything is deterministic given a seed, which makes the experiment
harness and the property-based tests reproducible.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sim.events import EventLoop, EventHandle
    from repro.sim.cpu import CpuModel, CpuJob
    from repro.sim.network import Network, Link, Packet
    from repro.sim.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        TimeSeries,
    )
    from repro.sim.faults import FaultEvent, FaultInjector, FaultSchedule
    from repro.sim.rng import RngStream
    from repro.sim.trace import MessageTrace, TraceEntry, render_ladder

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "MessageTrace": "repro.sim.trace",
    "TraceEntry": "repro.sim.trace",
    "render_ladder": "repro.sim.trace",
    "EventLoop": "repro.sim.events",
    "EventHandle": "repro.sim.events",
    "CpuModel": "repro.sim.cpu",
    "CpuJob": "repro.sim.cpu",
    "FaultEvent": "repro.sim.faults",
    "FaultInjector": "repro.sim.faults",
    "FaultSchedule": "repro.sim.faults",
    "Network": "repro.sim.network",
    "Link": "repro.sim.network",
    "Packet": "repro.sim.network",
    "Counter": "repro.sim.metrics",
    "Gauge": "repro.sim.metrics",
    "Histogram": "repro.sim.metrics",
    "MetricsRegistry": "repro.sim.metrics",
    "TimeSeries": "repro.sim.metrics",
    "RngStream": "repro.sim.rng",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
