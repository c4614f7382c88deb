"""Figure 7's and 8's graphs at hand-given capacities, for LP tests.

The program builds these shapes priced from a cost model
(``repro.workloads.scenarios.mix_topology`` and ``fork_topology``); the
LP tests solve them at raw (t_sf, t_sl) pairs instead -- weak or uneven
forks, and the objectives an independent solver once agreed on.
"""

from repro.core.topology import Topology


def mix(t_sf: float, t_sl: float, external_fraction: float) -> Topology:
    """S1 -> S2: flow ``external`` crosses both, ``internal`` ends at
    S1; a flow whose share is 0 is left out."""
    topology = Topology()
    topology.add_node("S1", t_sf, t_sl)
    topology.add_node("S2", t_sf, t_sl)
    topology.add_edge("S1", "S2")
    if external_fraction > 0:
        topology.add_flow("external", ["S1", "S2"], share=external_fraction)
    if external_fraction < 1:
        topology.add_flow("internal", ["S1"], share=1.0 - external_fraction)
    return topology


def fork(front, upper, lower, upper_share: float = 0.5) -> Topology:
    """Front F forking to U (flow ``upper``) and L (flow ``lower``)."""
    topology = Topology()
    topology.add_node("F", *front)
    topology.add_node("U", *upper)
    topology.add_node("L", *lower)
    topology.add_edge("F", "U")
    topology.add_edge("F", "L")
    topology.add_flow("upper", ["F", "U"], share=upper_share)
    topology.add_flow("lower", ["F", "L"], share=1.0 - upper_share)
    return topology
