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

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.obs.observe import ObserveConfig, Observer
    from repro.obs.profile import (
        FUNCTIONALITIES,
        STATE_FUNCTIONALITIES,
        CpuProfiler,
        functionality_of,
    )
    from repro.obs.telemetry import ControlTelemetry, OverloadControlTelemetry
    from repro.obs.spans import (
        CallSpan,
        build_call_spans,
        render_spans,
        spans_by_call,
    )
    from repro.obs.export import export_csv, export_json, render_profile_table

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "ObserveConfig": "repro.obs.observe",
    "Observer": "repro.obs.observe",
    "FUNCTIONALITIES": "repro.obs.profile",
    "STATE_FUNCTIONALITIES": "repro.obs.profile",
    "CpuProfiler": "repro.obs.profile",
    "functionality_of": "repro.obs.profile",
    "ControlTelemetry": "repro.obs.telemetry",
    "OverloadControlTelemetry": "repro.obs.telemetry",
    "CallSpan": "repro.obs.spans",
    "build_call_spans": "repro.obs.spans",
    "render_spans": "repro.obs.spans",
    "spans_by_call": "repro.obs.spans",
    "export_csv": "repro.obs.export",
    "export_json": "repro.obs.export",
    "render_profile_table": "repro.obs.export",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
