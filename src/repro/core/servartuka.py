"""The SERvartuka dynamic state-distribution algorithm (paper section 5).

Two cooperating parts, exactly as in the paper:

- **Algorithm 1** (:meth:`ServartukaPolicy.decide`) runs on every
  transaction-initiating request: bump the per-downstream-path counters
  and handle the request statefully iff state is not already maintained
  upstream and this path's ``sf_count`` is within ``myshare`` (or the
  message belongs to an existing transaction).
- **Algorithm 2** (:meth:`ServartukaPolicy.on_period`) runs every
  monitoring period: from the observed per-path loads, recompute
  ``myshare`` so the node's total state satisfies the feasibility
  constraint (equation 6/8), force absorption for overloaded downstream
  paths (``t_ip - c_ASF_ip - t_FASF_ip``), and send overload reports
  upstream when even forced absorption is infeasible.

The policy is deliberately *local*: it sees only its own counters and
the overload reports of its neighbours, which is what makes the scheme
a distributed realization of the section 4.1 LP.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.overload import OverloadReport, PathOverloadState
from repro.core.static_policy import PolicyDecision, StatePolicy

#: Downstream-path key for calls this node delivers itself (exit flows,
#: the paper's ``t_iz`` terms).
DELIVER = "__deliver__"


class ServartukaConfig:
    """Tunables of the algorithm (ablation targets, see DESIGN.md)."""

    def __init__(
        self,
        period: float = 1.0,
        headroom: float = 1.0,
        clear_utilization: float = 0.85,
        clear_periods: int = 2,
        dialog_state: bool = False,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < headroom <= 1.0:
            raise ValueError("headroom must be in (0, 1]")
        if not 0.0 < clear_utilization < 1.0:
            raise ValueError("clear_utilization must be in (0, 1)")
        if clear_periods < 1:
            raise ValueError("clear_periods must be >= 1")
        self.period = period
        self.headroom = headroom
        self.clear_utilization = clear_utilization
        self.clear_periods = clear_periods
        self.dialog_state = dialog_state


class PathStats:
    """Per-downstream-path counters for the current monitoring period."""

    __slots__ = (
        "rcv_count",
        "sf_count",
        "fasf_count",
        "nasf_forwarded",
        "myshare",
        "overload",
        "last_rate",
        "last_fasf_rate",
    )

    def __init__(self) -> None:
        self.rcv_count = 0
        self.sf_count = 0
        self.fasf_count = 0
        self.nasf_forwarded = 0
        self.myshare: float = math.inf
        self.overload = PathOverloadState()
        self.last_rate = 0.0
        self.last_fasf_rate = 0.0

    def reset_period(self, elapsed: float) -> None:
        self.last_rate = self.rcv_count / elapsed
        self.last_fasf_rate = self.fasf_count / elapsed
        self.rcv_count = 0
        self.sf_count = 0
        self.fasf_count = 0
        self.nasf_forwarded = 0


class ServartukaPolicy(StatePolicy):
    """Dynamic per-node policy implementing Algorithms 1 and 2.

    ``resource`` selects the function being distributed: ``"state"``
    (the paper's core contribution) or ``"auth"`` (its authentication-
    distribution extension).  The algorithm is identical -- only the
    per-node thresholds differ, which the owning proxy provides via
    ``resource_thresholds(resource)``.
    """

    def __init__(
        self,
        config: Optional[ServartukaConfig] = None,
        resource: str = "state",
    ):
        self.config = config or ServartukaConfig()
        self.resource = resource
        self.paths: Dict[str, PathStats] = {}
        self.tot_rcv = 0
        self.tot_sf = 0
        self._proxy = None
        self._last_period_at: Optional[float] = None
        self._overload_active = False
        self._calm_periods = 0
        self._report_sequence = 0
        # Exposed for tests / the harness.
        self.last_msg_rate = 0.0
        self.last_feasible_sf = math.inf
        self.periods_run = 0
        # Optional repro.obs.telemetry.ControlTelemetry recorder; None keeps
        # the control loop free of any observability work.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, proxy) -> None:
        """The proxy provides thresholds and the control-message hook."""
        self._proxy = proxy

    def _thresholds(self) -> tuple:
        """(with, without) capacities, scaled by the planning headroom."""
        t_sf, t_sl = self._proxy.resource_thresholds(self.resource)
        return t_sf * self.config.headroom, t_sl * self.config.headroom

    def path(self, key: str) -> PathStats:
        if key not in self.paths:
            self.paths[key] = PathStats()
        return self.paths[key]

    # ------------------------------------------------------------------
    # Algorithm 1: per-message decision
    # ------------------------------------------------------------------
    def decide(
        self,
        ds_path: str,
        already_stateful: bool,
        in_transaction: bool,
        is_exit: bool,
    ) -> PolicyDecision:
        key = DELIVER if is_exit else ds_path
        stats = self.path(key)
        stats.rcv_count += 1
        self.tot_rcv += 1

        if already_stateful:
            # State lives upstream; forward statelessly (FASF traffic).
            stats.fasf_count += 1
            return PolicyDecision(stateful=False)

        if in_transaction:
            take = True
        elif is_exit:
            # No downstream to delegate to: the system's statefulness
            # guarantee forces this node to hold state.
            take = True
        else:
            take = stats.sf_count < stats.myshare

        if take:
            stats.sf_count += 1
            self.tot_sf += 1
            return PolicyDecision(
                stateful=True, dialog_stateful=self.config.dialog_state
            )
        stats.nasf_forwarded += 1
        return PolicyDecision(stateful=False)

    def note_rejected(self, ds_path: str, is_exit: bool) -> None:
        """Count a 500-shed call toward the observed (offered) load."""
        key = DELIVER if is_exit else ds_path
        self.path(key).rcv_count += 1
        self.tot_rcv += 1

    # ------------------------------------------------------------------
    # Algorithm 2: periodic myshare computation
    # ------------------------------------------------------------------
    def on_period(self, now: float) -> None:
        if self._last_period_at is None:
            self._last_period_at = now
            self._reset_counters(self.config.period)
            return
        elapsed = now - self._last_period_at
        if elapsed <= 0:
            return
        self._last_period_at = now
        self.periods_run += 1

        t_sf, t_sl = self._thresholds()
        alpha = 1.0 / t_sf
        beta = 1.0 / t_sl
        inv_ab = 1.0 / (alpha - beta)

        msg_rate = self.tot_rcv / elapsed
        tot_sf_rate = self.tot_sf / elapsed
        self.last_msg_rate = msg_rate
        feasible_sf = max(0.0, (1.0 - beta * msg_rate) * inv_ab)
        self.last_feasible_sf = feasible_sf

        rates = {key: stats.rcv_count / elapsed for key, stats in self.paths.items()}
        fasf_rates = {
            key: stats.fasf_count / elapsed for key, stats in self.paths.items()
        }

        if msg_rate <= t_sf:
            # Equation (8), first case: hold state for everything.
            for stats in self.paths.values():
                stats.myshare = math.inf
            self._maybe_clear_overload(forced_rate=msg_rate, feasible=feasible_sf)
            self._record_period(now, "hold-all")
            self._reset_counters(elapsed)
            return

        # Equation (8), second case: shed state down to the feasible
        # level, pushing the shed portion to unsaturated downstream paths.
        deliver_keys = [key for key in self.paths if key == DELIVER]
        overloaded_keys = [
            key
            for key, stats in self.paths.items()
            if key != DELIVER and stats.overload.overloaded
        ]
        unsat_keys = [
            key
            for key, stats in self.paths.items()
            if key != DELIVER and not stats.overload.overloaded
        ]

        # Forced state: what overloaded paths cannot absorb plus
        # everything terminating here that is not already stateful.
        forced_rate = 0.0
        for key in overloaded_keys:
            stats = self.paths[key]
            must_take = max(
                0.0, rates[key] - stats.overload.c_asf_rate - fasf_rates[key]
            )
            stats.myshare = must_take * elapsed
            forced_rate += must_take
        for key in deliver_keys:
            stats = self.paths[key]
            stats.myshare = math.inf
            forced_rate += max(0.0, rates[key] - fasf_rates[key])

        if unsat_keys:
            # The expanded equation (section 5): everything fixed folds
            # into the constant c, then each relinquishable flow gets an
            # equal share of it minus its beta-cost term.
            c = inv_ab
            for key in overloaded_keys:
                stats = self.paths[key]
                c += stats.overload.c_asf_rate + fasf_rates[key]
                c -= alpha * rates[key] * inv_ab
            for key in deliver_keys:
                c += fasf_rates[key]
                c -= alpha * rates[key] * inv_ab
            planned = forced_rate
            for key in unsat_keys:
                lt = c / len(unsat_keys) - beta * rates[key] * inv_ab
                share_rate = max(0.0, lt)
                self.paths[key].myshare = share_rate * elapsed
                planned += share_rate
            if planned > feasible_sf * 1.05 + 1e-9:
                # Even with every relinquishable flow clamped we cannot
                # fit: propagate the overload upstream.
                self._send_overload(feasible_sf)
            else:
                self._maybe_clear_overload(forced_rate=planned, feasible=feasible_sf)
            self._record_period(now, "shed")
        else:
            # No path can take delegated state (paper lines 20-23).
            if tot_sf_rate > feasible_sf or forced_rate > feasible_sf:
                self._send_overload(feasible_sf)
            else:
                self._maybe_clear_overload(forced_rate=forced_rate, feasible=feasible_sf)
            self._record_period(now, "forced-only")

        self._reset_counters(elapsed)

    def _record_period(self, now: float, branch: str) -> None:
        """Telemetry sample of the operating point just computed."""
        if self.telemetry is None:
            return
        self.telemetry.record_period(
            now,
            msg_rate=self.last_msg_rate,
            feasible_sf=self.last_feasible_sf,
            branch=branch,
            overload_active=self._overload_active,
            paths=self.paths,
        )

    # ------------------------------------------------------------------
    # Overload reporting
    # ------------------------------------------------------------------
    def _send_overload(self, sustainable_sf_rate: float) -> None:
        self._calm_periods = 0
        self._overload_active = True
        self._report_sequence += 1
        self._proxy.broadcast_overload(
            overloaded=True,
            c_asf_rate=max(0.0, sustainable_sf_rate),
            sequence=self._report_sequence,
            resource=self.resource,
        )
        if self.telemetry is not None:
            self.telemetry.record_overload_sent(
                self._proxy.loop.now,
                overloaded=True,
                c_asf_rate=max(0.0, sustainable_sf_rate),
                sequence=self._report_sequence,
            )

    def _maybe_clear_overload(self, forced_rate: float, feasible: float) -> None:
        if not self._overload_active:
            return
        if forced_rate <= feasible * self.config.clear_utilization:
            self._calm_periods += 1
        else:
            self._calm_periods = 0
        if self._calm_periods >= self.config.clear_periods:
            self._overload_active = False
            self._calm_periods = 0
            self._report_sequence += 1
            self._proxy.broadcast_overload(
                overloaded=False,
                c_asf_rate=0.0,
                sequence=self._report_sequence,
                resource=self.resource,
            )
            if self.telemetry is not None:
                self.telemetry.record_overload_sent(
                    self._proxy.loop.now,
                    overloaded=False,
                    c_asf_rate=0.0,
                    sequence=self._report_sequence,
                )

    def on_overload_report(self, report: OverloadReport, now: float) -> None:
        """Record a downstream path's overload state (keyed by origin)."""
        stats = self.path(report.origin)
        stats.overload.apply(report, now)
        if self.telemetry is not None:
            self.telemetry.record_report_received(now, report)

    # ------------------------------------------------------------------
    # Fault handling (see repro.sim.faults)
    # ------------------------------------------------------------------
    def on_peer_down(self, peer: str) -> None:
        """Forget a dead downstream path so ``myshare`` redistributes.

        A dead neighbour can absorb no delegated state, so its counters
        and any overload report it sent are stale; dropping the
        :class:`PathStats` makes the next :meth:`on_period` recompute
        the shares over the surviving paths only.  Calls still routed
        toward the dead peer (before failover kicks in) re-enter the
        statistics as fresh path observations.
        """
        self.paths.pop(peer, None)

    def on_peer_up(self, peer: str) -> None:
        """A restarted peer starts with a clean slate: no stale overload."""
        self.paths.pop(peer, None)

    def on_node_crash(self, now: float) -> None:
        """The owning node crashed: all planning state dies with it.

        A restarted SERvartuka process observes from scratch -- counters
        zeroed, every path's ``myshare`` back to unlimited, no overload
        report outstanding.
        """
        self.paths.clear()
        self.tot_rcv = 0
        self.tot_sf = 0
        self._last_period_at = None
        self._overload_active = False
        self._calm_periods = 0
        self.last_msg_rate = 0.0
        self.last_feasible_sf = math.inf

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reset_counters(self, elapsed: float) -> None:
        for stats in self.paths.values():
            stats.reset_period(elapsed)
        self.tot_rcv = 0
        self.tot_sf = 0

    @property
    def is_overloaded(self) -> bool:
        return self._overload_active

    @property
    def name(self) -> str:
        return "servartuka"
