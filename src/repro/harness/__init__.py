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

__all__ = [
    "RunResult",
    "run_scenario",
    "ExecutionContext",
    "RunSpec",
    "SpecTemplate",
    "execution",
    "run_scenario_specs",
    "run_specs",
    "scenario_spec",
    "RunCache",
    "SweepPoint",
    "SweepResult",
    "sweep_loads",
    "find_capacity",
    "format_table",
    "render_figure",
    "ExperimentSuite",
    "FigureData",
    "Quality",
    "QUICK",
    "STANDARD",
    "FULL",
    "figure3_breakdown",
    "figure3_profile",
    "figure4_utilization",
    "figure5_two_series",
    "figure6_response_times",
    "figure7_changing_load",
    "figure8_parallel",
    "three_series_text",
    "lp_optima",
    "PlacementOutcome",
    "ResilienceParams",
    "build_resilience_scenario",
    "resilience_figure",
    "run_resilience",
]
