"""SERvartuka reproduction: dynamic distribution of SIP state.

A full reimplementation of *SERvartuka: Dynamic Distribution of State to
Improve SIP Server Scalability* (Balasubramaniyan et al., IBM RC24459 /
ICDCS 2008) as a Python library:

- a from-scratch SIP stack (:mod:`repro.sip`),
- a discrete-event testbed with a calibrated CPU cost model
  (:mod:`repro.sim`, :mod:`repro.core.costmodel`),
- simulated OpenSER-like proxies and SIPp-like endpoints
  (:mod:`repro.servers`),
- the paper's LP formulation and the SERvartuka distributed algorithm
  (:mod:`repro.core`),
- canonical workloads and an experiment harness regenerating every
  table and figure (:mod:`repro.workloads`, :mod:`repro.harness`).

Quickstart::

    from repro import two_series, run_scenario

    scenario = two_series(rate=8000, policy="servartuka")
    result = run_scenario(scenario, duration=10, warmup=4)
    print(result.throughput_cps, result.trying_ratio)
"""

from importlib import import_module
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    from repro.core.costmodel import CostModel, Feature
    from repro.core.lp import (
        LPSolution,
        StateDistributionLP,
        FlowPathLP,
        solve_fixed_routing,
        solve_free_routing,
    )
    from repro.core.overload import OverloadReport
    from repro.core.servartuka import ServartukaConfig, ServartukaPolicy
    from repro.core.static_policy import StaticMode, StaticPolicy
    from repro.core.topology import Topology
    from repro.core.analysis import (
        optimal_stateful_rate,
        series_optimal_throughput,
    )
    from repro.harness.experiments import ExperimentSuite
    from repro.sim.trace import MessageTrace, render_ladder
    from repro.harness.figures import FigureData, Quality, QUICK, STANDARD, FULL
    from repro.harness.runner import RunResult, run_scenario
    from repro.harness.report import render_figure
    from repro.harness.saturation import sweep_loads
    from repro.workloads.scenarios import (
        Scenario,
        ScenarioConfig,
        internal_external,
        n_series,
        parallel_fork,
        single_proxy,
        two_series,
    )


def _lazy_exports(namespace: dict, exports: Dict[str, str]):
    """The PEP 562 ``__getattr__`` / ``__dir__`` pair of a module whose
    public names are defined in other modules.

    ``exports`` maps each such name to its defining module; ``namespace``
    is the re-exporting module's ``globals()``.  Importing the module
    loads none of them: a name is imported on first access and stored in
    the namespace, so every later access is a plain attribute read (see
    "Import layering" in docs/ARCHITECTURE.md for why).
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Re-exported name -> defining module.
_EXPORTS = {
    "CostModel": "repro.core.costmodel",
    "Feature": "repro.core.costmodel",
    "LPSolution": "repro.core.lp",
    "OverloadReport": "repro.core.overload",
    "ServartukaConfig": "repro.core.servartuka",
    "ServartukaPolicy": "repro.core.servartuka",
    "StateDistributionLP": "repro.core.lp",
    "FlowPathLP": "repro.core.lp",
    "StaticMode": "repro.core.static_policy",
    "StaticPolicy": "repro.core.static_policy",
    "Topology": "repro.core.topology",
    "optimal_stateful_rate": "repro.core.analysis",
    "series_optimal_throughput": "repro.core.analysis",
    "solve_fixed_routing": "repro.core.lp",
    "solve_free_routing": "repro.core.lp",
    "ExperimentSuite": "repro.harness.experiments",
    "MessageTrace": "repro.sim.trace",
    "render_ladder": "repro.sim.trace",
    "FigureData": "repro.harness.figures",
    "Quality": "repro.harness.figures",
    "QUICK": "repro.harness.figures",
    "STANDARD": "repro.harness.figures",
    "FULL": "repro.harness.figures",
    "RunResult": "repro.harness.runner",
    "render_figure": "repro.harness.report",
    "run_scenario": "repro.harness.runner",
    "sweep_loads": "repro.harness.saturation",
    "Scenario": "repro.workloads.scenarios",
    "ScenarioConfig": "repro.workloads.scenarios",
    "internal_external": "repro.workloads.scenarios",
    "n_series": "repro.workloads.scenarios",
    "parallel_fork": "repro.workloads.scenarios",
    "single_proxy": "repro.workloads.scenarios",
    "two_series": "repro.workloads.scenarios",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
