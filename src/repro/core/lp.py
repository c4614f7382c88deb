"""The section 4.1 optimization formulation and its two LP variants.

- :class:`StateDistributionLP` -- the paper's free-routing edge-flow LP
  (equations 1-4): per extended edge ``(i, d)`` three variables
  ``t_FASF`` (state already held upstream), ``t_SF`` (state held at
  ``i``) and ``t_ASF`` (state still to be held), conservation at every
  node, zero not-yet-stateful flow into the sink, and the linearized
  utilization constraint.
- :class:`FlowPathLP` -- the routing-constrained variant the paper
  sketches (``t_id = phi_id * t_i``): traffic classes follow fixed
  paths with fixed mix shares, and the only freedom is *where along
  each path* state is held.  This is the variant that predicts the
  Figure 7 value (11,960 cps at an 80/20 external/internal mix) and the
  bound SERvartuka is compared against.

Both maximize admitted call throughput and return a structured
:class:`LPSolution` whose :meth:`LPSolution.verify` re-checks every
constraint -- used by the property-based tests.

Every LP is solved by the pure-python two-phase simplex in
:mod:`repro.core.simplex`: bit-deterministic, so an optimum (and every
run-cache key seeded from one) has one value per topology on every
host.  ``tests/core/test_lp_backends.py`` pins the objectives of the
shipped topologies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.simplex import SimplexError, solve_linear_program
from repro.core.topology import SINK, SOURCE, Topology


class LPError(RuntimeError):
    """Raised when the solver fails or returns an unusable status."""


def check_backend(backend: Optional[str]) -> None:
    """Accept only the one solver a ``backend=`` keyword may still name."""
    if backend not in (None, "simplex"):
        raise ValueError(
            f"unknown LP backend {backend!r}; the only solver is 'simplex'"
        )


class LPSolution:
    """Result of either LP variant.

    Attributes
    ----------
    throughput:
        Maximal admitted load (calls/second).
    stateful_rate:
        node -> calls/second the node holds state for.
    stateless_rate:
        node -> calls/second the node forwards without holding state.
    utilization:
        node -> predicted CPU utilization at the optimum (the capacity
        row's activity, so it is priced as the LP prices it).
    edge_values:
        (src, dst) -> {"fasf": .., "sf": .., "asf": ..} for the
        edge-flow variant; empty for the flow-path variant.
    flow_rates:
        flow name -> admitted calls/second (flow-path variant).
    """

    def __init__(
        self,
        topology: Topology,
        throughput: float,
        stateful_rate: Dict[str, float],
        stateless_rate: Dict[str, float],
        utilization: Dict[str, float],
        edge_values: Optional[Dict[Tuple[str, str], Dict[str, float]]] = None,
        flow_rates: Optional[Dict[str, float]] = None,
        flow_state_rates: Optional[Dict[Tuple[str, str], float]] = None,
    ):
        self.topology = topology
        self.throughput = throughput
        self.stateful_rate = stateful_rate
        self.stateless_rate = stateless_rate
        self.utilization = utilization
        self.edge_values = edge_values or {}
        self.flow_rates = flow_rates or {}
        self.flow_state_rates = flow_state_rates or {}

    def verify(self, tol: float = 1e-6) -> None:
        """Assert utilization and non-negativity hold at the solution."""
        for name, utilization in self.utilization.items():
            if utilization > 1.0 + tol:
                raise AssertionError(
                    f"utilization violated at {name}: {utilization:.6f} > 1"
                )
        for name in self.topology.node_names:
            if self.stateful_rate.get(name, 0.0) < -tol:
                raise AssertionError(f"negative stateful rate at {name}")
            if self.stateless_rate.get(name, 0.0) < -tol:
                raise AssertionError(f"negative stateless rate at {name}")
        if self.throughput < -tol:
            raise AssertionError("negative throughput")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LPSolution throughput={self.throughput:.1f}cps>"


def _solve(
    c: List[float],
    a_ub: Optional[List[List[float]]],
    b_ub: Optional[List[float]],
    a_eq: Optional[List[List[float]]],
    b_eq: Optional[List[float]],
    bounds: List[Tuple[float, Optional[float]]],
) -> List[float]:
    try:
        return solve_linear_program(
            c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds
        )
    except SimplexError as exc:
        raise LPError(f"simplex failed: {exc}") from exc


class StateDistributionLP:
    """Free-routing edge-flow LP (paper equations 1-4)."""

    _PARTS = ("fasf", "sf", "asf")

    def __init__(self, topology: Topology, backend: Optional[str] = None):
        check_backend(backend)
        topology.validate()
        self.topology = topology
        # Extended edge list: source->entries, graph edges, exits->sink.
        self.ext_edges: List[Tuple[str, str]] = []
        for entry in topology.entries:
            self.ext_edges.append((SOURCE, entry))
        self.ext_edges.extend(topology.edges)
        for exit_node in topology.exits:
            self.ext_edges.append((exit_node, SINK))
        self._index: Dict[Tuple[str, str, str], int] = {}
        for edge in self.ext_edges:
            for part in self._PARTS:
                self._index[(edge[0], edge[1], part)] = len(self._index)

    def _var(self, src: str, dst: str, part: str) -> int:
        return self._index[(src, dst, part)]

    def solve(self) -> LPSolution:
        topology = self.topology
        n_vars = len(self._index)

        bounds: List[Tuple[float, Optional[float]]] = [(0.0, None)] * n_vars
        for src, dst in self.ext_edges:
            if src == SOURCE:
                # At the source, no state exists yet: t_FASF = t_SF = 0.
                bounds[self._var(src, dst, "fasf")] = (0.0, 0.0)
                bounds[self._var(src, dst, "sf")] = (0.0, 0.0)
            if dst == SINK:
                # Everything reaching the sink must already be stateful.
                bounds[self._var(src, dst, "asf")] = (0.0, 0.0)

        eq_rows: List[List[float]] = []
        for name in topology.node_names:
            in_edges = [(s, d) for s, d in self.ext_edges if d == name]
            out_edges = [(s, d) for s, d in self.ext_edges if s == name]
            # (2): sum_in (fasf + sf) = sum_out fasf
            row = [0.0] * n_vars
            for src, dst in in_edges:
                row[self._var(src, dst, "fasf")] += 1.0
                row[self._var(src, dst, "sf")] += 1.0
            for src, dst in out_edges:
                row[self._var(src, dst, "fasf")] -= 1.0
            eq_rows.append(row)
            # (3): sum_in asf = sum_out (sf + asf)
            row = [0.0] * n_vars
            for src, dst in in_edges:
                row[self._var(src, dst, "asf")] += 1.0
            for src, dst in out_edges:
                row[self._var(src, dst, "sf")] -= 1.0
                row[self._var(src, dst, "asf")] -= 1.0
            eq_rows.append(row)

        # Not-yet-stateful traffic a node forwards (its asf out-edges)
        # relays the downstream 100 Trying.  Free routing fixes no call's
        # position: charge the least relay price of the flows the node
        # forwards on (zero on a hand-built topology).
        relay = {
            name: min((topology.hop_price(flow.name, name)[1]
                       for flow in topology.flows if name in flow.path[:-1]),
                      default=0.0)
            for name in topology.node_names
        }
        ub_rows: List[List[float]] = []
        ub_vals: List[float] = []
        for name in topology.node_names:
            spec = topology.node(name)
            out_edges = [(s, d) for s, d in self.ext_edges if s == name]
            row = [0.0] * n_vars
            for src, dst in out_edges:
                row[self._var(src, dst, "sf")] += spec.alpha
                row[self._var(src, dst, "asf")] += spec.beta + relay[name]
                row[self._var(src, dst, "fasf")] += spec.beta
            ub_rows.append(row)
            ub_vals.append(1.0)

        # Objective: maximize sum of source-edge asf (total admitted load).
        c = [0.0] * n_vars
        for entry in topology.entries:
            c[self._var(SOURCE, entry, "asf")] = -1.0

        x = _solve(
            c,
            ub_rows or None,
            ub_vals or None,
            eq_rows or None,
            [0.0] * len(eq_rows) if eq_rows else None,
            bounds,
        )

        edge_values: Dict[Tuple[str, str], Dict[str, float]] = {}
        for src, dst in self.ext_edges:
            edge_values[(src, dst)] = {
                part: float(x[self._var(src, dst, part)]) for part in self._PARTS
            }

        stateful: Dict[str, float] = {}
        stateless: Dict[str, float] = {}
        utilization: Dict[str, float] = {}
        for name in topology.node_names:
            spec = topology.node(name)
            out_edges = [(s, d) for s, d in self.ext_edges if s == name]
            stateful[name] = sum(edge_values[e]["sf"] for e in out_edges)
            stateless[name] = sum(
                edge_values[e]["asf"] + edge_values[e]["fasf"] for e in out_edges
            )
            utilization[name] = (
                stateful[name] * spec.alpha + stateless[name] * spec.beta
            )
            if relay[name]:
                utilization[name] += relay[name] * sum(
                    edge_values[e]["asf"] for e in out_edges
                )

        throughput = sum(
            edge_values[(SOURCE, entry)]["asf"] for entry in topology.entries
        )
        return LPSolution(topology, throughput, stateful, stateless,
                          utilization, edge_values=edge_values)


class FlowPathLP:
    """Routing-constrained LP: fixed paths, fixed mix, free state placement.

    Variables: total admitted load ``L`` and, for every flow ``f`` and
    node ``i`` on its path, the stateful rate ``x[f, i]``.  Constraints::

        sum_{i in path(f)} x[f, i] = share_f * L        (state somewhere)
        for each node i, over the flows f through it:
            sum_f penalty_fi * (x[f, i] * alpha_i
                                + (share_f * L - x[f, i]) * beta_i)
          + sum_f relay_fi * (share_f * L - sum_{j <= i on f} x[f, j]) <= 1
        x >= 0

    ``(penalty_fi, relay_fi)`` is the topology's
    :meth:`~repro.core.topology.Topology.hop_price`: the penalty prices
    the flow's own depth and lookup at the node, the relay price the
    downstream ``100 Trying`` each call forwarded with its state still
    ahead (NASF) relays back.  A hand-built topology prices every hop
    ``(1, 0)``: equation 8.
    """

    def __init__(self, topology: Topology):
        if not topology.flows:
            raise ValueError("flow-path LP requires flows on the topology")
        topology.validate()
        self.topology = topology
        self.shares = topology.normalized_flow_shares()
        self._index: Dict[Tuple[str, str], int] = {}
        for flow in topology.flows:
            for node in flow.path:
                self._index[(flow.name, node)] = len(self._index)
        self._load_var = len(self._index)

    def solve(self) -> LPSolution:
        topology = self.topology
        n_vars = self._load_var + 1
        bounds: List[Tuple[float, Optional[float]]] = [(0.0, None)] * n_vars

        eq_rows: List[List[float]] = []
        for flow in topology.flows:
            row = [0.0] * n_vars
            for node in flow.path:
                row[self._index[(flow.name, node)]] = 1.0
            row[self._load_var] = -self.shares[flow.name]
            eq_rows.append(row)

        ub_rows: List[List[float]] = []
        ub_vals: List[float] = []
        for name in topology.node_names:
            spec = topology.node(name)
            row = [0.0] * n_vars
            touched = False
            for flow in topology.flows:
                if name not in flow.path:
                    continue
                touched = True
                penalty, relay = topology.hop_price(flow.name, name)
                index = self._index[(flow.name, name)]
                # x at alpha, (share*L - x) at beta.
                row[index] += (spec.alpha - spec.beta) * penalty
                row[self._load_var] += self.shares[flow.name] * spec.beta * penalty
                if relay:
                    # NASF: share*L less the state held up to this hop.
                    row[self._load_var] += self.shares[flow.name] * relay
                    for node in flow.path[:flow.path.index(name) + 1]:
                        row[self._index[(flow.name, node)]] -= relay
            if touched:
                ub_rows.append(row)
                ub_vals.append(1.0)

        c = [0.0] * n_vars
        c[self._load_var] = -1.0

        x = _solve(
            c,
            ub_rows or None,
            ub_vals or None,
            eq_rows or None,
            [0.0] * len(eq_rows) if eq_rows else None,
            bounds,
        )

        throughput = float(x[self._load_var])
        stateful: Dict[str, float] = {name: 0.0 for name in topology.node_names}
        stateless: Dict[str, float] = {name: 0.0 for name in topology.node_names}
        flow_rates: Dict[str, float] = {}
        flow_state: Dict[Tuple[str, str], float] = {}
        utilization: Dict[str, float] = {
            name: 0.0 for name in topology.node_names
        }
        for flow in topology.flows:
            rate = self.shares[flow.name] * throughput
            flow_rates[flow.name] = rate
            held_so_far = 0.0
            for node in flow.path:
                held = float(x[self._index[(flow.name, node)]])
                held_so_far += held
                flow_state[(flow.name, node)] = held
                stateful[node] += held
                stateless[node] += rate - held
                spec = topology.node(node)
                penalty, relay = topology.hop_price(flow.name, node)
                utilization[node] += (
                    held * spec.alpha + (rate - held) * spec.beta
                ) * penalty
                if relay:
                    utilization[node] += relay * (rate - held_so_far)
        return LPSolution(
            topology,
            throughput,
            stateful,
            stateless,
            utilization,
            flow_rates=flow_rates,
            flow_state_rates=flow_state,
        )


def solve_free_routing(topology: Topology) -> LPSolution:
    """Convenience wrapper for the paper's free-routing LP."""
    return StateDistributionLP(topology).solve()


def solve_fixed_routing(topology: Topology) -> LPSolution:
    """Convenience wrapper for the routing-constrained LP."""
    return FlowPathLP(topology).solve()
