"""Fluid (flow-level) model of overload behaviour.

The LP of section 4.1 predicts *capacity*; this module predicts what a
node actually delivers when offered MORE than capacity -- the paper's
saturation region, where "there is a large increase in SIP 500 Server
Busy messages and increased retransmission of call requests".

Model: a node with per-call cost ``c`` (capacity ``C = 1/c``) sheds
excess load by answering 500, which still costs a fraction ``rho`` of a
full call (parse + reject generation).  At offered load ``L > knee``
the CPU splits between served calls ``x`` and rejected calls ``L - x``::

    x * c + (L - x) * rho * c = 1
    =>  x(L) = (C - rho * L) / (1 - rho)

so goodput *declines linearly* past the knee with slope
``-rho / (1 - rho)`` and collapses entirely at ``L = C / rho``.  This
is why the measured curves in Figures 5/8 fall off past their plateau
instead of staying flat -- and why the measured saturation sits a few
percent below the analytic capacity (the knee is rounded by service
-time noise and retransmissions).

The model is deliberately simple (no queueing, retransmissions folded
into an amplification factor); its value is explaining the *shape* of
the measured sweeps, which the tests check against simulation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.costmodel import (
    CostModel,
    Feature,
    MessageKind,
    scenario_features,
)


class FluidModel:
    """Overload goodput prediction for one node.

    Parameters
    ----------
    cost_model:
        Calibrated cost model (scale is folded out; predictions are in
        paper-equivalent cps).
    features:
        The node's functionality set (determines its per-call cost).
    depth:
        Chain position (Via overhead).
    retransmission_amplification:
        Multiplier on offered load past the knee accounting for
        client retransmissions of delayed/dropped messages (1.0 = none).
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        features: Optional[Iterable[Feature]] = None,
        depth: float = 0.0,
        retransmission_amplification: float = 1.0,
    ):
        if retransmission_amplification < 1.0:
            raise ValueError("amplification must be >= 1")
        self.cost_model = cost_model or CostModel()
        self.features = frozenset(
            features if features is not None
            else scenario_features("transaction_stateful")
        )
        self.depth = depth
        self.amplification = retransmission_amplification

        scale = self.cost_model.scale
        self.call_cost = self.cost_model.per_call_cost(self.features, depth) / scale
        reject_cost, _ = self.cost_model.message_cost(MessageKind.REJECT)
        # A rejected call costs the INVITE receive/parse plus the 500.
        invite_cost, _ = self.cost_model.message_cost(
            MessageKind.INVITE, frozenset({Feature.BASE}), extra_vias=depth
        )
        self.reject_cost = (reject_cost + 0.2 * invite_cost) / scale
        if self.reject_cost >= self.call_cost:
            raise ValueError("reject cost must be below full call cost")

    # ------------------------------------------------------------------
    # Predictions (paper-equivalent cps)
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> float:
        """The knee: max load fully served."""
        return 1.0 / self.call_cost

    @property
    def rho(self) -> float:
        """Cost ratio of a rejected call to a served call."""
        return self.reject_cost / self.call_cost

    @property
    def collapse_load(self) -> float:
        """Offered load at which goodput reaches zero."""
        return self.capacity / self.rho / self.amplification

    def goodput(self, offered: float) -> float:
        """Delivered calls/second at a given offered load."""
        if offered < 0:
            raise ValueError("offered load must be >= 0")
        if offered <= self.capacity:
            return offered
        effective = offered * self.amplification
        served = (self.capacity - self.rho * effective) / (1.0 - self.rho)
        return max(0.0, min(served, self.capacity))

    def rejected(self, offered: float) -> float:
        """500-shed calls/second at a given offered load."""
        return max(0.0, offered - self.goodput(offered))

    def post_knee_slope(self) -> float:
        """d(goodput)/d(offered) past the knee (negative)."""
        return -self.rho * self.amplification / (1.0 - self.rho)

    def predict_curve(
        self, loads: Iterable[float]
    ) -> List[Tuple[float, float]]:
        return [(load, self.goodput(load)) for load in loads]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FluidModel capacity={self.capacity:.0f}cps rho={self.rho:.3f} "
            f"collapse={self.collapse_load:.0f}cps>"
        )


def capacity_hint(
    mode: str = "transaction_stateful",
    depth: float = 0.0,
    cost_model: Optional[CostModel] = None,
) -> float:
    """Analytic capacity prediction (paper cps) for one node.

    Convenience wrapper over :class:`FluidModel` meant to seed
    :func:`repro.harness.saturation.find_capacity`: the adaptive search
    converges in its minimum number of probes when the hint lands
    within one grid spacing of the true knee, which this prediction
    does for the calibrated scenarios.  ``mode`` is any name accepted
    by :func:`repro.core.costmodel.scenario_features`.
    """
    model = FluidModel(
        cost_model=cost_model,
        features=scenario_features(mode),
        depth=depth,
    )
    return model.capacity
