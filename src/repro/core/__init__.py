"""The paper's primary contribution.

- :mod:`repro.core.costmodel` -- Figure-3-calibrated CPU cost model,
- :mod:`repro.core.topology` -- server graph with imaginary source/sink,
- :mod:`repro.core.lp` -- the section 4.1 linear program (scipy or
  the pure-python :mod:`repro.core.simplex` backend),
- :mod:`repro.core.topogen` -- seeded cluster-scale topology
  generator (chains, balancer trees, multi-domain meshes),
- :mod:`repro.core.analysis` -- equation (8) and closed-form optima,
- :mod:`repro.core.static_policy` / :mod:`repro.core.servartuka` --
  per-node state policies: the static baselines and Algorithms 1 & 2,
- :mod:`repro.core.overload` -- the overload/clear control messages.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.costmodel import (
        CostModel,
        Feature,
        MessageKind,
        FIG3_FEATURE_EVENTS,
    )
    from repro.core.topology import Topology, Flow
    from repro.core.lp import (
        FlowPathLP,
        LPSolution,
        StateDistributionLP,
        solve_fixed_routing,
        solve_free_routing,
    )
    from repro.core.topogen import GeneratedTopology, generate
    from repro.core.analysis import (
        optimal_stateful_rate,
        series_optimal_throughput,
        static_series_throughput,
    )
    from repro.core.static_policy import StaticPolicy, StaticMode
    from repro.core.servartuka import ServartukaPolicy, ServartukaConfig
    from repro.core.overload import OverloadReport

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "CostModel": "repro.core.costmodel",
    "Feature": "repro.core.costmodel",
    "MessageKind": "repro.core.costmodel",
    "FIG3_FEATURE_EVENTS": "repro.core.costmodel",
    "Topology": "repro.core.topology",
    "Flow": "repro.core.topology",
    "StateDistributionLP": "repro.core.lp",
    "FlowPathLP": "repro.core.lp",
    "LPSolution": "repro.core.lp",
    "solve_fixed_routing": "repro.core.lp",
    "solve_free_routing": "repro.core.lp",
    "GeneratedTopology": "repro.core.topogen",
    "generate": "repro.core.topogen",
    "optimal_stateful_rate": "repro.core.analysis",
    "series_optimal_throughput": "repro.core.analysis",
    "static_series_throughput": "repro.core.analysis",
    "StaticPolicy": "repro.core.static_policy",
    "StaticMode": "repro.core.static_policy",
    "ServartukaPolicy": "repro.core.servartuka",
    "ServartukaConfig": "repro.core.servartuka",
    "OverloadReport": "repro.core.overload",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
