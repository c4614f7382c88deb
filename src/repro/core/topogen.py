"""Seeded, deterministic cluster-scale topology generation.

The paper formulates state placement over arbitrary server graphs
(section 4.1) but only ever evaluates 2-3 node chains and fans.  This
module generates the "millions of users" rung: parameterized families
of proxy graphs -- dozens to hundreds of :class:`~repro.core.topology.
NodeSpec` proxies with heterogeneous capacities and mixed
internal/external flow shares -- that feed both the LP oracle
(:class:`~repro.core.lp.FlowPathLP`) and, via the ``generated``
scenario builder in :mod:`repro.workloads.scenarios`, the per-call
simulator under any engine rung.

Three families (:data:`FAMILIES`):

- ``chain`` -- ``size`` proxies in series.  One external flow
  traverses the whole chain; internal flows enter at the head and
  terminate at seeded interior exits (the Figure 7 internal/external
  mix generalized to depth N).
- ``tree`` -- a load-balancer tree: a complete ``fanout``-ary tree
  filled breadth-first, root entry, leaves exits, one flow per
  root-to-leaf path with seeded shares (Figure 8's fork generalized).
- ``mesh`` -- multiple SIP domains, each an L-deep chain, with
  seeded inter-domain peering: every domain carries an intra-domain
  flow, and each non-terminal domain originates an external flow that
  traverses its own chain and then a higher-indexed target domain's
  chain (gateway edges run low->high so the graph stays a DAG).
  ``size`` is a floor: the generator emits ``ceil(size/chain_depth)``
  domains of ``chain_depth`` nodes, i.e. at least ``size`` proxies.

**Determinism.**  Everything derives from ``random.Random`` seeded by
``(family, size, seed)`` with a fixed draw order: structure first, then
flow shares, then per-node speed factors.  Equal arguments therefore
produce bit-identical topologies on every platform, and the
``heterogeneity`` knob changes only node speeds, never the graph shape.

**Heterogeneity.**  Each node gets a speed factor
``exp(uniform(-1, 1) * heterogeneity)`` -- ``0.0`` means exactly
homogeneous, ``0.7`` spreads capacities roughly 4x end to end.

**Capacity realism.**  Node capacities are not drawn out of thin air:
each node's ``(t_sf, t_sl)`` comes from the calibrated
:class:`~repro.core.costmodel.CostModel` at the node's home depth and
feature set (entries parse small messages, deep nodes pay Via growth,
exits pay the location lookup), times its speed factor.  Per-flow
``hop_penalties`` then charge each flow the cost ratio of *its* depth
and feature set at a node versus the node's home economics, so the
:meth:`GeneratedTopology.oracle` LP bound and the simulator price
calls the same way -- the precondition for a meaningful optimality
gap.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.core.costmodel import CostModel, path_features
from repro.core.lp import FlowPathLP, LPSolution, check_backend
from repro.core.topology import Topology, home_pricing

FAMILIES = ("chain", "tree", "mesh")

_FAMILY_SALT = {"chain": 101, "tree": 211, "mesh": 307}

_MIN_SIZE = {"chain": 2, "tree": 3, "mesh": 4}

#: Default family parameters (resolved into :meth:`GeneratedTopology.spec`).
DEFAULT_EXTERNAL_SHARE = 0.7
DEFAULT_FANOUT = 2
DEFAULT_CHAIN_DEPTH = 3


class GeneratedNode:
    """Per-node metadata the scenario builder needs."""

    __slots__ = ("name", "depth", "speed", "delivers", "t_sf", "t_sl")

    def __init__(self, name: str, depth: int, speed: float, delivers: bool,
                 t_sf: float, t_sl: float):
        self.name = name
        self.depth = depth          # home depth (Via count economics)
        self.speed = speed          # capacity multiplier vs the anchors
        self.delivers = delivers    # terminates >= 1 flow (pays lookup)
        self.t_sf = t_sf            # stateful saturation, paper cps
        self.t_sl = t_sl            # stateless saturation, paper cps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeneratedNode({self.name!r}, depth={self.depth}, "
            f"speed={self.speed:.3f}, t_sf={self.t_sf:.0f})"
        )


class GeneratedTopology:
    """A generated graph plus everything needed to price it.

    Attributes
    ----------
    topology:
        The :class:`~repro.core.topology.Topology` (nodes with
        calibrated capacities, edges, flows with seeded shares).
    nodes:
        name -> :class:`GeneratedNode` (speed/depth/lookup metadata).
    hop_penalties:
        ``(flow name, node) -> factor`` for :class:`FlowPathLP`,
        charging each flow a node's cost at the flow's own depth and
        feature set relative to the node's home economics.
    """

    def __init__(
        self,
        family: str,
        size: int,
        seed: int,
        heterogeneity: float,
        params: Dict[str, object],
        topology: Topology,
        nodes: Dict[str, GeneratedNode],
        hop_penalties: Dict[Tuple[str, str], float],
    ):
        self.family = family
        self.size = size
        self.seed = seed
        self.heterogeneity = heterogeneity
        self.params = dict(params)
        self.topology = topology
        self.nodes = nodes
        self.hop_penalties = hop_penalties

    @property
    def n_proxies(self) -> int:
        return len(self.nodes)

    def spec(self) -> Dict[str, object]:
        """JSON-able arguments that regenerate this topology exactly."""
        payload: Dict[str, object] = {
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "heterogeneity": self.heterogeneity,
        }
        payload.update(self.params)
        return payload

    def oracle(self, backend: Optional[str] = None) -> LPSolution:
        """LP-optimal placement/throughput for this topology.

        The oracle rate seeds simulation specs (and with them run-cache
        keys); the one solver is bit-deterministic, so it has one value
        per topology on every host.  ``backend`` accepts only ``None``
        or ``"simplex"``.
        """
        check_backend(backend)
        return FlowPathLP(self.topology, self.hop_penalties).solve()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GeneratedTopology {self.family} n={self.n_proxies} "
            f"seed={self.seed} het={self.heterogeneity}>"
        )


# ----------------------------------------------------------------------
# Family structure builders: names, edges, flows (name, path, share)
# ----------------------------------------------------------------------
_Structure = Tuple[
    List[str],
    List[Tuple[str, str]],
    List[Tuple[str, Tuple[str, ...], float]],
]


def _chain_structure(size: int, rng: random.Random,
                     external_share: float) -> _Structure:
    names = [f"P{i + 1}" for i in range(size)]
    edges = list(zip(names, names[1:]))
    # Seeded interior exits: calls that stay "inside the domain" stop
    # short of the chain end, exactly the Figure 7 internal class.
    interior = list(range(0, size - 1))
    n_internal = 1 if size <= 3 else 2
    exits = sorted(rng.sample(interior, min(n_internal, len(interior))))
    flows: List[Tuple[str, Tuple[str, ...], float]] = [
        ("ext", tuple(names), external_share)
    ]
    weights = [rng.uniform(0.5, 1.5) for _ in exits]
    total = sum(weights)
    for k, (stop, weight) in enumerate(zip(exits, weights)):
        share = (1.0 - external_share) * weight / total
        flows.append((f"int{k + 1}", tuple(names[: stop + 1]), share))
    return names, edges, flows


def _tree_structure(size: int, rng: random.Random, fanout: int) -> _Structure:
    names = [f"B{i + 1}" for i in range(size)]
    edges: List[Tuple[str, str]] = []
    children: Dict[int, List[int]] = {i: [] for i in range(size)}
    for i in range(size):
        for k in range(fanout):
            child = fanout * i + k + 1
            if child < size:
                children[i].append(child)
                edges.append((names[i], names[child]))
    leaves = [i for i in range(size) if not children[i]]
    flows: List[Tuple[str, Tuple[str, ...], float]] = []
    weights = [rng.uniform(0.5, 1.5) for _ in leaves]
    total = sum(weights)
    for k, (leaf, weight) in enumerate(zip(leaves, weights)):
        path = [leaf]
        while path[0] != 0:
            path.insert(0, (path[0] - 1) // fanout)
        flows.append(
            (f"leaf{k + 1}", tuple(names[i] for i in path), weight / total)
        )
    return names, edges, flows


def _mesh_structure(size: int, rng: random.Random, chain_depth: int,
                    external_share: float) -> _Structure:
    depth = chain_depth
    domains = max(2, -(-size // depth))  # ceil: n_proxies >= size
    chains = [
        [f"D{d + 1}N{k + 1}" for k in range(depth)] for d in range(domains)
    ]
    names = [name for chain in chains for name in chain]
    edges: List[Tuple[str, str]] = []
    for chain in chains:
        edges.extend(zip(chain, chain[1:]))
    # Gateway peering: each non-terminal domain picks one higher-indexed
    # target, so inter-domain edges all run low->high (DAG by design).
    targets = [rng.randrange(d + 1, domains) for d in range(domains - 1)]
    for d, target in enumerate(targets):
        edges.append((chains[d][-1], chains[target][0]))
    internal_weights = [rng.uniform(0.5, 1.5) for _ in range(domains)]
    external_weights = [rng.uniform(0.5, 1.5) for _ in range(domains - 1)]
    flows: List[Tuple[str, Tuple[str, ...], float]] = []
    total_int = sum(internal_weights)
    for d in range(domains):
        share = (1.0 - external_share) * internal_weights[d] / total_int
        flows.append((f"int{d + 1}", tuple(chains[d]), share))
    total_ext = sum(external_weights) or 1.0
    for d, target in enumerate(targets):
        share = external_share * external_weights[d] / total_ext
        flows.append(
            (f"ext{d + 1}", tuple(chains[d] + chains[target]), share)
        )
    return names, edges, flows


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate(
    family: str = "chain",
    size: int = 6,
    seed: int = 1,
    heterogeneity: float = 0.0,
    cost_model: Optional[CostModel] = None,
    external_share: float = DEFAULT_EXTERNAL_SHARE,
    fanout: int = DEFAULT_FANOUT,
    chain_depth: int = DEFAULT_CHAIN_DEPTH,
) -> GeneratedTopology:
    """Generate one topology instance.

    Parameters
    ----------
    family:
        One of :data:`FAMILIES`.
    size:
        Number of proxies (exact for ``chain``/``tree``; a floor for
        ``mesh``, which rounds up to whole domains).
    seed, heterogeneity:
        Seed for all random structure/share/speed draws, and the node
        speed spread (0 = homogeneous).
    cost_model:
        Unit-scale cost model anchoring capacities and hop penalties;
        defaults to the paper calibration.  Pass a model built from a
        :class:`~repro.workloads.scenarios.ScenarioConfig`'s anchors to
        keep the LP oracle consistent with a reconfigured simulation.
    external_share:
        Fraction of offered load on flows that leave their domain
        (``chain`` full-depth flow, ``mesh`` inter-domain flows).
    fanout:
        Branching factor of the ``tree`` family.
    chain_depth:
        Per-domain chain length of the ``mesh`` family.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; one of {FAMILIES}")
    if size < _MIN_SIZE[family]:
        raise ValueError(
            f"{family} topologies need size >= {_MIN_SIZE[family]}"
        )
    if heterogeneity < 0:
        raise ValueError("heterogeneity must be >= 0")
    if not 0.0 < external_share <= 1.0:
        raise ValueError("external_share must be in (0, 1]")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    if chain_depth < 2:
        raise ValueError("chain_depth must be >= 2")

    # One deterministic stream; str hashes are randomized per process,
    # so the salt is numeric.
    rng = random.Random(
        (seed * 1_000_003 + _FAMILY_SALT[family]) * 1_009 + size
    )
    if family == "chain":
        names, edges, flows = _chain_structure(size, rng, external_share)
        params: Dict[str, object] = {"external_share": external_share}
    elif family == "tree":
        names, edges, flows = _tree_structure(size, rng, fanout)
        params = {"fanout": fanout}
    else:
        names, edges, flows = _mesh_structure(
            size, rng, chain_depth, external_share
        )
        params = {"chain_depth": chain_depth,
                  "external_share": external_share}

    # Speed factors are drawn last so the graph shape is invariant
    # under the heterogeneity knob.
    speeds = {
        name: math.exp(rng.uniform(-1.0, 1.0) * heterogeneity)
        for name in names
    }

    pricing = home_pricing(path for _flow_name, path, _share in flows)
    model = cost_model or CostModel()
    topology = Topology()
    nodes: Dict[str, GeneratedNode] = {}
    for name in names:
        depth, delivers = pricing[name]
        t_sf_unit, t_sl_unit = model.node_thresholds(
            path_features(delivers), depth=depth
        )
        speed = speeds[name]
        node = GeneratedNode(
            name, depth, speed, delivers,
            t_sf_unit * speed, t_sl_unit * speed,
        )
        nodes[name] = node
        topology.add_node(name, node.t_sf, node.t_sl)
    for src, dst in edges:
        topology.add_edge(src, dst)

    hop_penalties: Dict[Tuple[str, str], float] = {}
    for flow_name, path, share in flows:
        topology.add_flow(flow_name, list(path), share=share)
        for position, name in enumerate(path):
            node = nodes[name]
            home_cost = model.per_call_cost(
                path_features(node.delivers), depth=node.depth
            )
            flow_cost = model.per_call_cost(
                path_features(name == path[-1]), depth=position
            )
            penalty = flow_cost / home_cost
            if abs(penalty - 1.0) > 1e-12:
                hop_penalties[(flow_name, name)] = penalty

    topology.validate()
    return GeneratedTopology(
        family, size, seed, heterogeneity, params,
        topology, nodes, hop_penalties,
    )
