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
