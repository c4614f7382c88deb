"""Server-graph model for the state-distribution problem.

Mirrors section 4.1's setup: proxy nodes in an arbitrary directed graph,
an imaginary source node ``0`` feeding every entry node and an imaginary
sink ``z`` fed by every exit node, so the formulation is single-source /
single-sink "without any loss in generality".

Two layers of description coexist:

- the **graph** (nodes, edges, entries, exits) feeds the paper's
  free-routing LP (:class:`repro.core.lp.StateDistributionLP`);
- **flows** -- fixed paths with a traffic share -- feed the
  routing-constrained variant (:class:`repro.core.lp.FlowPathLP`) and
  the simulation scenarios, where "the call request will traverse a
  path determined by underlying network routing mechanisms".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.costmodel import CostModel, MessageKind, path_features

SOURCE = "__source__"
SINK = "__sink__"


class NodeSpec:
    """Capacity description of one proxy node.

    ``t_sf`` / ``t_sl`` are the stateful and stateless saturation loads
    in calls/second (the alpha/beta reciprocals of equation 8).
    """

    __slots__ = ("name", "t_sf", "t_sl")

    def __init__(self, name: str, t_sf: float, t_sl: float):
        if t_sf <= 0 or t_sl <= 0:
            raise ValueError(f"capacities must be positive for {name}")
        if t_sf > t_sl:
            raise ValueError(
                f"{name}: stateful capacity {t_sf} exceeds stateless {t_sl}; "
                "state must cost something"
            )
        self.name = name
        self.t_sf = t_sf
        self.t_sl = t_sl

    @property
    def alpha(self) -> float:
        """Seconds of capacity consumed per stateful call."""
        return 1.0 / self.t_sf

    @property
    def beta(self) -> float:
        """Seconds of capacity consumed per stateless call."""
        return 1.0 / self.t_sl

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NodeSpec({self.name!r}, t_sf={self.t_sf:.0f}, t_sl={self.t_sl:.0f})"


class Flow:
    """A class of calls following a fixed node path.

    ``share`` is the flow's fraction of total offered load (the paper's
    Figure 7 varies the external/internal shares).
    """

    __slots__ = ("name", "path", "share")

    def __init__(self, name: str, path: Sequence[str], share: float = 1.0):
        if not path:
            raise ValueError("flow path must contain at least one node")
        if share < 0:
            raise ValueError("share must be >= 0")
        self.name = name
        self.path = tuple(path)
        self.share = share

    @property
    def entry(self) -> str:
        return self.path[0]

    @property
    def exit(self) -> str:
        return self.path[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Flow({self.name!r}, {'->'.join(self.path)}, share={self.share})"


class Topology:
    """Named nodes, directed edges, entry/exit sets and optional flows.

    ``hop_prices`` maps a hop ``(flow name, node)`` to its
    ``(penalty, relay)`` prices (see :func:`priced_topology`); a hop
    without an entry is priced ``(1.0, 0.0)``, which is exactly the
    paper's equation 8.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeSpec] = {}
        self._edges: List[Tuple[str, str]] = []
        self.entries: List[str] = []
        self.exits: List[str] = []
        self.flows: List[Flow] = []
        self.hop_prices: Dict[Tuple[str, str], Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, t_sf: float, t_sl: float) -> NodeSpec:
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        if name in (SOURCE, SINK):
            raise ValueError(f"{name!r} is reserved")
        spec = NodeSpec(name, t_sf, t_sl)
        self._nodes[name] = spec
        return spec

    def add_edge(self, src: str, dst: str) -> None:
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise KeyError(f"unknown node {endpoint!r}")
        if (src, dst) in self._edges:
            return
        if src == dst:
            raise ValueError("self-loops are not allowed")
        self._edges.append((src, dst))

    def mark_entry(self, name: str) -> None:
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        if name not in self.entries:
            self.entries.append(name)

    def mark_exit(self, name: str) -> None:
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        if name not in self.exits:
            self.exits.append(name)

    def add_flow(self, name: str, path: Sequence[str], share: float = 1.0) -> Flow:
        for node in path:
            if node not in self._nodes:
                raise KeyError(f"unknown node {node!r} in flow {name!r}")
        for hop_src, hop_dst in zip(path, path[1:]):
            if (hop_src, hop_dst) not in self._edges:
                raise ValueError(f"flow {name!r} uses missing edge {hop_src}->{hop_dst}")
        flow = Flow(name, path, share)
        self.flows.append(flow)
        self.mark_entry(flow.entry)
        self.mark_exit(flow.exit)
        return flow

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> NodeSpec:
        return self._nodes[name]

    def hop_price(self, flow: str, node: str) -> Tuple[float, float]:
        """``(penalty, relay)`` for ``flow``'s hop at ``node``: the
        penalty scales the node's alpha and beta, the relay price is
        paid per call forwarded with its state still downstream."""
        return self.hop_prices.get((flow, node), (1.0, 0.0))

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return list(self._edges)

    def downstream(self, name: str) -> List[str]:
        return [dst for src, dst in self._edges if src == name]

    def upstream(self, name: str) -> List[str]:
        return [src for src, dst in self._edges if dst == name]

    def validate(self) -> None:
        """Check the graph is usable for the LP."""
        if not self.entries:
            raise ValueError("topology has no entry nodes")
        if not self.exits:
            raise ValueError("topology has no exit nodes")
        self._assert_acyclic()

    def _assert_acyclic(self) -> None:
        """The LP's flow conservation assumes a DAG; reject cycles."""
        adjacency: Dict[str, List[str]] = {name: [] for name in self._nodes}
        indegree: Dict[str, int] = {name: 0 for name in self._nodes}
        for src, dst in self._edges:
            adjacency[src].append(dst)
            indegree[dst] += 1
        queue = [name for name, deg in indegree.items() if deg == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for nxt in adjacency[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if visited != len(self._nodes):
            raise ValueError("topology contains a cycle")

    def normalized_flow_shares(self) -> Dict[str, float]:
        """Flow name -> share, normalized to sum to 1."""
        total = sum(flow.share for flow in self.flows)
        if total <= 0:
            raise ValueError("flow shares must sum to a positive value")
        return {flow.name: flow.share / total for flow in self.flows}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Topology nodes={len(self._nodes)} edges={len(self._edges)} "
            f"flows={len(self.flows)}>"
        )


def home_pricing(paths: Iterable[Sequence[str]]) -> Dict[str, Tuple[int, bool]]:
    """Where each proxy on fixed paths is priced: node ->
    ``(home depth, delivers)``, in order of first appearance.  A node is
    priced at its home depth (the Via-stack position of its own traffic:
    its minimum position on any path) and pays the location lookup iff
    it delivers, i.e. ends some path."""
    pricing: Dict[str, Tuple[int, bool]] = {}
    for path in paths:
        for position, node in enumerate(path):
            depth, delivers = pricing.get(node, (position, False))
            pricing[node] = (
                min(depth, position), delivers or position == len(path) - 1
            )
    return pricing


def priced_topology(
    names: Sequence[str],
    flows: Sequence[Tuple[str, Sequence[str], float]],
    cost_model: CostModel,
    factors: Dict[str, float],
) -> Topology:
    """The one price rule: nodes ``names`` and ``flows`` (``(name, path,
    share)``; the edges are their hops), priced as ``cost_model``
    charges a proxy on fixed paths.  ``factors`` turns a node's
    ``cost_model`` capacities into the topology's: the scenario's
    ``scale``, or a generated node's speed.

    A node gets ``node_thresholds(...) * factor`` at its
    :func:`home_pricing`.  A hop gets a penalty, the flow's own per-call
    cost at the node (its position, the lookup iff it ends there) over
    the home cost, and a relay price: one ``100 Trying`` at ``position +
    1`` extra Vias, over the factor, that a call forwarded with its state
    still ahead relays back.  An exit forwards nothing, so relays nothing.
    """
    pricing = home_pricing(path for _name, path, _share in flows)
    topology = Topology()
    for name in names:
        depth, delivers = pricing[name]
        t_sf, t_sl = cost_model.node_thresholds(
            path_features(delivers), depth=depth
        )
        topology.add_node(name, t_sf * factors[name], t_sl * factors[name])
    for flow_name, path, share in flows:
        for src, dst in zip(path, path[1:]):
            topology.add_edge(src, dst)
        topology.add_flow(flow_name, path, share=share)
        last = len(path) - 1
        for position, name in enumerate(path):
            depth, delivers = pricing[name]
            penalty = cost_model.per_call_cost(
                path_features(position == last), depth=position
            ) / cost_model.per_call_cost(path_features(delivers), depth=depth)
            if abs(penalty - 1.0) <= 1e-12:
                penalty = 1.0
            relay = 0.0
            if position < last:
                relay = cost_model.message_cost(
                    MessageKind.PROVISIONAL_100, extra_vias=position + 1
                )[0] / factors[name]
            topology.hop_prices[(flow_name, name)] = (penalty, relay)
    topology.validate()
    return topology


# ----------------------------------------------------------------------
# Canonical builders used throughout the evaluation
# ----------------------------------------------------------------------
def series_topology(
    capacities: Sequence[Tuple[float, float]],
    names: Optional[Sequence[str]] = None,
) -> Topology:
    """N servers in series, a single flow entering at the first.

    ``capacities`` is a list of (t_sf, t_sl) pairs, upstream first.
    """
    topology = Topology()
    if names is None:
        names = [f"S{i + 1}" for i in range(len(capacities))]
    if len(names) != len(capacities):
        raise ValueError("names and capacities must have equal length")
    for name, (t_sf, t_sl) in zip(names, capacities):
        topology.add_node(name, t_sf, t_sl)
    for src, dst in zip(names, names[1:]):
        topology.add_edge(src, dst)
    topology.add_flow("main", list(names), share=1.0)
    return topology


def two_series_topology(t_sf: float, t_sl: float) -> Topology:
    """The paper's canonical two-homogeneous-servers-in-series case."""
    return series_topology([(t_sf, t_sl), (t_sf, t_sl)])
