"""CPU cost model calibrated from the paper's measurements.

Two measurements anchor everything:

1. **Figure 3** (OProfile at 1 cps) gives CPU events/call by functionality
   mode: 362 (stateless, no lookup), 412 (stateless + lookup), 707
   (transaction stateful), 803 (dialog stateful), 983 (+authentication),
   broken into components (parsing, memory, lumping, routing, hashing,
   lookup, state, authentication, others).
2. **Figure 4** (load sweep) gives saturation: T_SF ~= 10,360 cps
   transaction-stateful, T_SL ~= 12,300 cps stateless, both with lookup.

Figure 3 alone would predict a 707/412 = 1.72x stateful/stateless cost
ratio, but Figure 4 shows only 12300/10360 = 1.19x.  The reconciliation
(see DESIGN.md) is that OProfile counts only OpenSER's own cycles while
saturation also includes per-message kernel/UDP cost invisible to the
application profile.  We therefore model

    cost_per_call(mode) = C_BASE + K * events(mode)          [seconds]

and solve the two-anchor system:

    C_BASE + 412 K = 1 / 12300
    C_BASE + 707 K = 1 / 10360

giving K ~= 51.6 ns/event and C_BASE ~= 60.0 us/call.  Every mode's
capacity then follows from its Figure 3 event count; nothing else is
tuned per-figure.

**Via overhead.**  Messages grow by one Via header per traversed proxy;
parsing/buffer work grows with message size.  Components ``parsing``,
``memory`` and ``others`` are scaled by ``1 + via_overhead * extra_vias``
(default 20% per Via beyond the first).  This reproduces the paper's
observation that a chain of two statically configured servers saturates
well below a single stateful server (8,540 vs ~10,360 cps): the messages
the bottleneck handles are simply bigger.

**Scale.**  ``scale`` multiplies every cost, dividing all capacities:
``scale=10`` turns T_SF=10,360 into 1,036 cps so sweeps run 10x faster.
The harness reports loads in *paper-equivalent* cps (measured x scale).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Tuple

# Saturation anchors from the paper, Figure 4 (calls per second).
PAPER_T_SF = 10360.0
PAPER_T_SL = 12300.0

# Figure 3 per-scenario totals (CPU events per call).
FIG3_TOTALS = {
    "no_lookup": 362,
    "stateless": 412,
    "transaction_stateful": 707,
    "dialog_stateful": 803,
    "authentication": 983,
}

COMPONENTS = (
    "parsing",
    "memory",
    "lumping",
    "routing",
    "hashing",
    "lookup",
    "state",
    "authentication",
    "others",
)

# Components whose work grows with message size (extra Via headers).
SIZE_SENSITIVE_COMPONENTS = frozenset({"parsing", "memory", "others"})


class Feature(enum.Enum):
    """Functionality a node executes for a call (paper section 3.1)."""

    BASE = "base"                  # parse, route, forward (no lookup)
    LOOKUP = "lookup"              # URI -> contact resolution
    TXN_STATE = "txn_state"        # transaction-stateful handling
    DIALOG_STATE = "dialog_state"  # dialog-stateful handling
    AUTH = "auth"                  # digest credential verification


# Incremental CPU events per call contributed by each feature, broken by
# component.  Rows sum so that the cumulative scenarios reproduce the
# Figure 3 bar totals exactly:
#   BASE=362, +LOOKUP=412, +TXN=707, +DIALOG=803, +AUTH=983.
FIG3_FEATURE_EVENTS: Dict[Feature, Dict[str, int]] = {
    Feature.BASE: {
        "parsing": 120, "memory": 40, "lumping": 30, "routing": 60,
        "hashing": 6, "others": 106,
    },
    Feature.LOOKUP: {
        "parsing": 2, "memory": 4, "routing": 2, "hashing": 2,
        "lookup": 36, "others": 4,
    },
    Feature.TXN_STATE: {
        "parsing": 48, "memory": 66, "lumping": 4, "routing": 2,
        "hashing": 32, "state": 130, "others": 13,
    },
    Feature.DIALOG_STATE: {
        "parsing": 12, "memory": 22, "lumping": 2, "routing": 2,
        "hashing": 6, "state": 38, "others": 14,
    },
    Feature.AUTH: {
        "parsing": 14, "memory": 14, "lumping": 2, "routing": 2,
        "hashing": 4, "state": 4, "authentication": 130, "others": 10,
    },
}


class MessageKind(enum.Enum):
    """What a node is processing, for apportioning per-call cost."""

    INVITE = "invite"
    PROVISIONAL_180 = "180"
    FINAL_200_INVITE = "200_invite"
    ACK = "ack"
    BYE = "bye"
    FINAL_200_BYE = "200_bye"
    PROVISIONAL_100 = "100"          # hop-by-hop 100 Trying from downstream
    ABSORB_RETRANSMIT = "absorb"     # stateful absorption of a retransmit
    REJECT = "reject"                # generating a 4xx/5xx
    CONTROL = "control"              # SERvartuka overload report
    REGISTER = "register"
    REGISTER_AUTH = "register_auth"  # REGISTER with digest verification
    GENERIC = "generic"


# The six messages a proxy handles per completed call in the paper's
# make-and-break SIPp scenario, with each feature's cost share.
CALL_MESSAGE_KINDS: Tuple[MessageKind, ...] = (
    MessageKind.INVITE,
    MessageKind.PROVISIONAL_180,
    MessageKind.FINAL_200_INVITE,
    MessageKind.ACK,
    MessageKind.BYE,
    MessageKind.FINAL_200_BYE,
)

_FEATURE_MESSAGE_WEIGHTS: Dict[Feature, Dict[MessageKind, float]] = {
    # Base parse/route/forward work, roughly proportional to traffic.
    Feature.BASE: {
        MessageKind.INVITE: 0.30,
        MessageKind.PROVISIONAL_180: 0.10,
        MessageKind.FINAL_200_INVITE: 0.14,
        MessageKind.ACK: 0.12,
        MessageKind.BYE: 0.20,
        MessageKind.FINAL_200_BYE: 0.14,
    },
    # Lookup happens when routing the initial INVITE.
    Feature.LOOKUP: {MessageKind.INVITE: 1.0},
    # Transaction state: creation dominates (INVITE and BYE transactions),
    # the rest is matching/teardown on the remaining messages.
    Feature.TXN_STATE: {
        MessageKind.INVITE: 0.45,
        MessageKind.FINAL_200_INVITE: 0.15,
        MessageKind.ACK: 0.05,
        MessageKind.BYE: 0.25,
        MessageKind.FINAL_200_BYE: 0.10,
    },
    # Dialog state spans the whole call.
    Feature.DIALOG_STATE: {
        MessageKind.INVITE: 0.50,
        MessageKind.FINAL_200_INVITE: 0.20,
        MessageKind.BYE: 0.20,
        MessageKind.FINAL_200_BYE: 0.10,
    },
    # Credentials are verified on the dialog-creating INVITE.
    Feature.AUTH: {MessageKind.INVITE: 1.0},
}

# Flat event costs for messages outside the nominal call flow.
_SPECIAL_EVENTS: Dict[MessageKind, Dict[str, int]] = {
    MessageKind.PROVISIONAL_100: {"parsing": 14, "routing": 4, "others": 6},
    MessageKind.ABSORB_RETRANSMIT: {"parsing": 16, "hashing": 10, "others": 6},
    MessageKind.REJECT: {"parsing": 10, "memory": 4, "others": 8},
    MessageKind.CONTROL: {"parsing": 2, "others": 3},
    MessageKind.REGISTER: {"parsing": 24, "memory": 10, "lookup": 20, "others": 12},
    # REGISTER plus the digest check: the plain-REGISTER events summed
    # with the AUTH feature's per-INVITE events (Table 1's
    # authentication column applies per verified request).
    MessageKind.REGISTER_AUTH: {
        "parsing": 38, "memory": 24, "lumping": 2, "routing": 2,
        "hashing": 4, "lookup": 20, "state": 4, "authentication": 130,
        "others": 22,
    },
    MessageKind.GENERIC: {"parsing": 16, "routing": 4, "others": 8},
}


def scenario_features(name: str) -> FrozenSet[Feature]:
    """Feature set for one of the paper's five Figure 3 scenarios."""
    chains = {
        "no_lookup": (Feature.BASE,),
        "stateless": (Feature.BASE, Feature.LOOKUP),
        "transaction_stateful": (Feature.BASE, Feature.LOOKUP, Feature.TXN_STATE),
        "dialog_stateful": (
            Feature.BASE, Feature.LOOKUP, Feature.TXN_STATE, Feature.DIALOG_STATE,
        ),
        "authentication": (
            Feature.BASE, Feature.LOOKUP, Feature.TXN_STATE,
            Feature.DIALOG_STATE, Feature.AUTH,
        ),
    }
    if name not in chains:
        raise KeyError(f"unknown scenario {name!r}; one of {sorted(chains)}")
    return frozenset(chains[name])


def _in_definition_order(features: Iterable[Feature]) -> List[Feature]:
    """``features`` in :class:`Feature` definition order.

    Feature sets travel as frozensets of enum members, and an Enum
    hashes by its name string, so iterating one follows PYTHONHASHSEED.
    Every loop below sums floats or fills a breakdown dict, and neither
    the last digit nor the key order may depend on the process's seed.
    """
    members = frozenset(features)
    return [feature for feature in Feature if feature in members]


def component_events(features: Iterable[Feature]) -> Dict[str, int]:
    """Per-call CPU events by component for a feature set."""
    totals: Dict[str, int] = {}
    for feature in _in_definition_order(features):
        for component, events in FIG3_FEATURE_EVENTS[feature].items():
            totals[component] = totals.get(component, 0) + events
    return totals


def total_events(features: Iterable[Feature]) -> int:
    return sum(component_events(features).values())


class CostModel:
    """Seconds-of-CPU charging for every message a node processes.

    Parameters
    ----------
    t_sf, t_sl:
        Calibration anchors (cps); defaults are the paper's Figure 4
        saturation points for transaction-stateful and stateless modes
        (both with lookup).
    scale:
        Multiplies every cost; capacities divide by it (fast test runs).
    via_overhead:
        Fractional growth of size-sensitive component cost per Via
        header beyond the first on the processed message.
    base_messages_per_call:
        How many messages the per-call baseline cost C_BASE is spread
        over (the six call messages of the SIPp scenario).
    """

    def __init__(
        self,
        t_sf: float = PAPER_T_SF,
        t_sl: float = PAPER_T_SL,
        scale: float = 1.0,
        via_overhead: float = 0.20,
        base_messages_per_call: int = len(CALL_MESSAGE_KINDS),
    ):
        if t_sf <= 0 or t_sl <= 0:
            raise ValueError("capacities must be positive")
        if t_sf >= t_sl:
            raise ValueError("stateful capacity must be below stateless capacity")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if via_overhead < 0:
            raise ValueError("via_overhead must be >= 0")
        self.t_sf = t_sf
        self.t_sl = t_sl
        self.scale = scale
        self.via_overhead = via_overhead
        self.base_messages_per_call = base_messages_per_call
        # message_cost() results by argument tuple (see there).
        self._memo: Dict[Tuple, Tuple[float, Dict[str, float]]] = {}
        self.k_seconds_per_event = 0.0
        self.base_seconds_per_call = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        """Solve (C_BASE, K) against the Figure 4 anchors.

        The reference is the paper's single-proxy testbed at chain depth
        0: requests reach the proxy with one Via (the client's, so zero
        *extra* Vias) while responses carry the full two-Via stack (one
        extra).  Per-call cost is linear in (C_BASE, K), so we evaluate
        the two unit responses numerically and solve the 2x2 system::

            A * C_BASE + B(stateless) * K = 1 / T_SL
            A * C_BASE + B(stateful)  * K = 1 / T_SF
        """
        sl = scenario_features("stateless")
        sf = scenario_features("transaction_stateful")
        a_sl = self._per_call_with(1.0, 0.0, sl, depth=0.0)
        a_sf = self._per_call_with(1.0, 0.0, sf, depth=0.0)
        b_sl = self._per_call_with(0.0, 1.0, sl, depth=0.0)
        b_sf = self._per_call_with(0.0, 1.0, sf, depth=0.0)
        determinant = a_sl * b_sf - a_sf * b_sl
        if abs(determinant) < 1e-18:
            raise ValueError("degenerate calibration system")
        target_sl = 1.0 / self.t_sl
        target_sf = 1.0 / self.t_sf
        self.base_seconds_per_call = (target_sl * b_sf - target_sf * b_sl) / determinant
        self.k_seconds_per_event = (a_sl * target_sf - a_sf * target_sl) / determinant
        if self.base_seconds_per_call < 0 or self.k_seconds_per_event < 0:
            raise ValueError(
                "calibration produced negative costs; t_sf/t_sl are "
                "inconsistent with the Figure 3 profile"
            )

    @staticmethod
    def _message_extra_vias(kind: "MessageKind", depth: float) -> float:
        """Extra Vias on a message at chain depth (0 = first proxy).

        Requests grow one Via per upstream proxy; responses carry the
        full stack, i.e. one more than the requests at the same node.
        """
        if kind in (
            MessageKind.PROVISIONAL_180,
            MessageKind.FINAL_200_INVITE,
            MessageKind.FINAL_200_BYE,
            MessageKind.PROVISIONAL_100,
        ):
            return depth + 1.0
        return depth

    def _per_call_with(
        self, base: float, k: float, features: FrozenSet[Feature], depth: float
    ) -> float:
        """Per-call cost under hypothetical (base, k); used by calibration."""
        ordered = _in_definition_order(features)
        total = 0.0
        for kind in CALL_MESSAGE_KINDS:
            extra = self._message_extra_vias(kind, depth)
            size_factor = 1.0 + self.via_overhead * extra
            for feature in ordered:
                weight = _FEATURE_MESSAGE_WEIGHTS[feature].get(kind, 0.0)
                if weight == 0.0:
                    continue
                for component, events in FIG3_FEATURE_EVENTS[feature].items():
                    seconds = events * weight * k
                    if component in SIZE_SENSITIVE_COMPONENTS:
                        seconds *= size_factor
                    total += seconds
            total += (base / self.base_messages_per_call) * size_factor
        return total

    # ------------------------------------------------------------------
    # Per-message charging
    # ------------------------------------------------------------------
    def message_cost(
        self,
        kind: MessageKind,
        features: FrozenSet[Feature] = frozenset(),
        extra_vias: float = 0.0,
    ) -> Tuple[float, Dict[str, float]]:
        """Cost in seconds plus its component breakdown (seconds each).

        ``extra_vias`` is the number of Via headers beyond the first on
        the message being processed (fractional values are allowed for
        averaged/planning computations).

        The charge is a pure function of its arguments and the
        constructor's constants, so it is computed once per argument
        tuple; callers share the returned breakdown and must only read
        it.
        """
        key = (kind, features, extra_vias)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._message_cost_uncached(kind, features, extra_vias)
        # Fractional planning extra_vias are unbounded; cap the memo.
        if len(self._memo) < 2048:
            self._memo[key] = result
        return result

    def _message_cost_uncached(
        self,
        kind: MessageKind,
        features: FrozenSet[Feature],
        extra_vias: float,
    ) -> Tuple[float, Dict[str, float]]:
        if extra_vias < 0:
            raise ValueError("extra_vias must be >= 0")
        size_factor = 1.0 + self.via_overhead * extra_vias
        components: Dict[str, float] = {}

        if kind in _SPECIAL_EVENTS:
            for component, events in _SPECIAL_EVENTS[kind].items():
                seconds = events * self.k_seconds_per_event
                if component in SIZE_SENSITIVE_COMPONENTS:
                    seconds *= size_factor
                components[component] = components.get(component, 0.0) + seconds
            base_share = 0.5 if kind != MessageKind.CONTROL else 0.1
        else:
            for feature in _in_definition_order(features):
                weight = _FEATURE_MESSAGE_WEIGHTS[feature].get(kind, 0.0)
                if weight == 0.0:
                    continue
                for component, events in FIG3_FEATURE_EVENTS[feature].items():
                    seconds = events * weight * self.k_seconds_per_event
                    if component in SIZE_SENSITIVE_COMPONENTS:
                        seconds *= size_factor
                    components[component] = components.get(component, 0.0) + seconds
            base_share = 1.0

        base = (self.base_seconds_per_call / self.base_messages_per_call) * base_share
        base *= size_factor
        components["baseline"] = components.get("baseline", 0.0) + base

        total = sum(components.values()) * self.scale
        scaled = {name: seconds * self.scale for name, seconds in components.items()}
        return total, scaled

    # ------------------------------------------------------------------
    # Per-call aggregates (analytic capacities)
    # ------------------------------------------------------------------
    def per_call_cost(
        self, features: Iterable[Feature], depth: float = 0.0
    ) -> float:
        """Seconds of CPU one call costs at a node (all 6 messages).

        ``depth`` is the node's 0-based position in the proxy chain:
        requests reaching a node at depth d carry d extra Vias and the
        responses d+1 (see :meth:`_message_extra_vias`).
        """
        feature_set = frozenset(features)
        total = 0.0
        for kind in CALL_MESSAGE_KINDS:
            extra = self._message_extra_vias(kind, depth)
            cost, _ = self.message_cost(kind, feature_set, extra)
            total += cost
        return total

    def capacity_cps(self, features: Iterable[Feature], depth: float = 0.0) -> float:
        """Analytic saturation load for a node running ``features``."""
        return 1.0 / self.per_call_cost(features, depth)

    def node_thresholds(
        self, features: Iterable[Feature], depth: float = 0.0
    ) -> Tuple[float, float]:
        """(T_SF, T_SL) for a node: capacity with and without state.

        These are the alpha/beta inputs of the SERvartuka algorithm
        (equation 8): alpha = 1/T_SF, beta = 1/T_SL.
        """
        base = frozenset(features) - {Feature.TXN_STATE, Feature.DIALOG_STATE}
        stateful = base | {Feature.TXN_STATE}
        return (
            self.capacity_cps(stateful, depth),
            self.capacity_cps(base, depth),
        )

    def utilization(
        self, stateful_cps: float, stateless_cps: float,
        features: Iterable[Feature] = (Feature.BASE, Feature.LOOKUP),
        depth: float = 0.0,
    ) -> float:
        """Predicted utilization for a mixed load (constraint (4) LHS)."""
        t_sf, t_sl = self.node_thresholds(features, depth)
        return stateful_cps / t_sf + stateless_cps / t_sl

    def fig3_profile(self) -> Dict[str, Dict[str, int]]:
        """Figure 3 data: scenario -> component -> events/call."""
        return {
            name: component_events(scenario_features(name))
            for name in FIG3_TOTALS
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CostModel k={self.k_seconds_per_event * 1e9:.2f}ns/event "
            f"base={self.base_seconds_per_call * 1e6:.2f}us/call scale={self.scale}>"
        )
