"""Observability for the SERvartuka reproduction.

Three subsystems, all off by default and enabled per scenario via
``ScenarioConfig(observe=...)``:

- :mod:`repro.obs.profile` -- per-functionality CPU accounting
  (reproduces the paper's Figure-3 profile live, per node),
- :mod:`repro.obs.telemetry` -- SERvartuka control-loop time series
  (``myshare``, per-path accounting, overload messages, eq-(8)
  operating points),
- :mod:`repro.obs.spans` -- per-call span trees derived from message
  traces, composing with the ladder renderer.

Export via :mod:`repro.obs.export` (JSON/CSV) or the ``repro obs``
CLI subcommand.  Contract: disabled observability changes no metric
and costs <=2% wall-clock on the engine bench (gated by
``benchmarks/bench_obs.py``); enabled observability still changes no
*metric* -- recorders are pure sinks outside the metrics registries.
"""
