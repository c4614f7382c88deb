"""Experiment harness: run scenarios, sweep loads, regenerate figures.

- :mod:`repro.harness.runner` -- run one scenario at one load and
  collect a structured :class:`~repro.harness.runner.RunResult`,
- :mod:`repro.harness.saturation` -- load sweeps and saturation search,
- :mod:`repro.harness.parallel` -- process-pool sweep executor with
  deterministic merging (``--jobs``) and the run-cache plumbing,
- :mod:`repro.harness.runcache` -- on-disk content-addressed cache of
  run results,
- :mod:`repro.harness.figures` -- one function per paper table/figure,
- :mod:`repro.harness.report` -- text rendering and paper-vs-measured
  comparison tables.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.harness.runner import RunResult, run_scenario
    from repro.harness.parallel import (
        ExecutionContext,
        RunSpec,
        SpecTemplate,
        execution,
        run_scenario_specs,
        run_specs,
        scenario_spec,
    )
    from repro.harness.runcache import RunCache
    from repro.harness.saturation import (
        SweepPoint,
        SweepResult,
        sweep_loads,
        find_capacity,
    )
    from repro.harness.report import format_table, render_figure
    from repro.harness.experiments import ExperimentSuite
    from repro.harness.resilience import (
        PlacementOutcome,
        ResilienceParams,
        build_resilience_scenario,
        resilience_figure,
        run_resilience,
    )
    from repro.harness.figures import (
        FigureData,
        Quality,
        QUICK,
        STANDARD,
        FULL,
        figure3_breakdown,
        figure3_profile,
        figure4_utilization,
        figure5_two_series,
        figure6_response_times,
        figure7_changing_load,
        figure8_parallel,
        three_series_text,
        lp_optima,
    )

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "RunResult": "repro.harness.runner",
    "run_scenario": "repro.harness.runner",
    "ExecutionContext": "repro.harness.parallel",
    "RunSpec": "repro.harness.parallel",
    "SpecTemplate": "repro.harness.parallel",
    "execution": "repro.harness.parallel",
    "run_scenario_specs": "repro.harness.parallel",
    "run_specs": "repro.harness.parallel",
    "scenario_spec": "repro.harness.parallel",
    "RunCache": "repro.harness.runcache",
    "SweepPoint": "repro.harness.saturation",
    "SweepResult": "repro.harness.saturation",
    "sweep_loads": "repro.harness.saturation",
    "find_capacity": "repro.harness.saturation",
    "format_table": "repro.harness.report",
    "render_figure": "repro.harness.report",
    "ExperimentSuite": "repro.harness.experiments",
    "FigureData": "repro.harness.figures",
    "Quality": "repro.harness.figures",
    "QUICK": "repro.harness.figures",
    "STANDARD": "repro.harness.figures",
    "FULL": "repro.harness.figures",
    "figure3_breakdown": "repro.harness.figures",
    "figure3_profile": "repro.harness.figures",
    "figure4_utilization": "repro.harness.figures",
    "figure5_two_series": "repro.harness.figures",
    "figure6_response_times": "repro.harness.figures",
    "figure7_changing_load": "repro.harness.figures",
    "figure8_parallel": "repro.harness.figures",
    "three_series_text": "repro.harness.figures",
    "lp_optima": "repro.harness.figures",
    "PlacementOutcome": "repro.harness.resilience",
    "ResilienceParams": "repro.harness.resilience",
    "build_resilience_scenario": "repro.harness.resilience",
    "resilience_figure": "repro.harness.resilience",
    "run_resilience": "repro.harness.resilience",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
