"""The resilience experiment: who loses calls when a proxy crashes?

The paper optimizes throughput by moving transaction state downstream;
this experiment measures the reliability cost of where that state
lives.  Three placements of the Figure-7 internal/external topology run
under an *identical* fault schedule (same seed, same crash times, same
lossy links):

- ``static``      -- every proxy transaction-stateful (paper case (i)),
- ``servartuka``  -- dynamic: S1 keeps custody of its own (internal,
  terminating) flow and delegates the pass-through (external) flow's
  state downstream,
- ``stateless``   -- no proxy holds state; reliability is end-to-end.

Why crashing S1 separates the three: a stateful proxy answers ``100
Trying`` immediately, which (RFC 3261 17.1.1.2) stops the caller's
Timer A retransmissions -- from then on the proxy's own downstream
client transaction is the only retransmission machinery the call has.
If the INVITE is then lost on a lossy downstream link and the proxy
crashes while the call is in that custody window, nobody retransmits
and the call dies at Timer B.  A stateless proxy never sends the 100,
so the caller keeps retransmitting through the crash and the call
survives.  Static S1 is exposed on *both* lossy links (internal and
external flows alike); SERvartuka S1 only on the internal flow it kept
custody of; so losses order static > SERvartuka > stateless, and
SERvartuka's exposure shifts with the share of traffic it holds state
for (vary ``external_fraction``).

Why the internal/external mix (and not the two-in-series chain): under
packet loss, Algorithm 2's feedback is unstable in the shedding band.
Delegating custody removes the immediate ``100``, so callers
retransmit, which *raises* the measured message rate, which forces
more delegation -- custody 0 and custody 1 are both absorbing states
and no interior share survives (the paper's LAN evaluation never hits
this because it has no loss).  Exit traffic is immune: Algorithm 1
always takes custody of calls this node itself delivers (the system
statefulness guarantee), so pinning S1 above its headroom-scaled band
yields a custody share exactly equal to the internal fraction --
stable by construction, not by controller equilibrium.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.costmodel import CostModel, Feature
from repro.harness.figures import FigureData, Quality, QUICK
from repro.sim.faults import FaultSchedule
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import Scenario, ScenarioConfig, internal_external

#: The three placements compared, in headline order.
PLACEMENTS = ("static", "servartuka", "stateless")

#: Short RFC timers so Timer B (64*T1 = 6.4 s) fits in a quick run.
RESILIENCE_TIMERS = TimerPolicy(t1=0.1, t2=0.4, t4=0.4)


def entry_node_thresholds() -> tuple:
    """(t_sf, t_sl) of a pass-through node in paper-unit cps."""
    return CostModel().node_thresholds(frozenset({Feature.BASE}), depth=0.0)


class ResilienceParams:
    """Knobs of the fault campaign (shared across the three placements)."""

    def __init__(
        self,
        scale: float = 25.0,
        seed: int = 1,
        headroom: float = 0.35,
        load_factor: float = 0.5,
        external_fraction: float = 0.5,
        loss: float = 0.25,
        crash_node: str = "S1",
        crash_times: Sequence[float] = (2.2, 4.2, 6.2, 8.2, 10.2, 12.2),
        downtime: float = 0.3,
        run_for: float = 14.0,
        drain: float = 8.0,
        monitor_period: float = 0.5,
        noise_sigma: float = 0.30,
        reject_queue_delay: float = 0.3,
        max_queue_delay: float = 1.0,
        engine: str = "turbo",
    ):
        if not 0.0 < headroom <= 1.0:
            raise ValueError("headroom must be in (0, 1]")
        if not 0.0 < load_factor <= 1.0:
            raise ValueError("load_factor must be in (0, 1]")
        if not 0.0 < external_fraction < 1.0:
            raise ValueError("external_fraction must be strictly inside (0, 1)")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if any(t >= run_for for t in crash_times):
            raise ValueError("crash_times must fall inside the run")
        # Keep crashes off the monitor-period grid: any myshare-granted
        # custody is consumed at the *start* of each planning period, so
        # a crash landing exactly on a period boundary would sample an
        # artificially empty custody window.
        if any(
            abs(t / monitor_period - round(t / monitor_period)) < 1e-9
            for t in crash_times
        ):
            raise ValueError(
                "crash_times must not align with monitor_period boundaries"
            )
        self.scale = scale
        self.seed = seed
        self.headroom = headroom
        self.load_factor = load_factor
        self.external_fraction = external_fraction
        self.loss = loss
        self.crash_node = crash_node
        self.crash_times = list(crash_times)
        self.downtime = downtime
        self.run_for = run_for
        self.drain = drain
        self.monitor_period = monitor_period
        self.noise_sigma = noise_sigma
        # Each restart releases a small retransmit herd (every call that
        # arrived during the downtime retries at once).  Queue
        # tolerances sized to the herd let the proxies absorb that
        # burst instead of shedding it as 500s, so Timer B timeouts --
        # not overload rejections -- are the signal this experiment
        # measures.  Too loose is as bad as too tight: a multi-second
        # queue turns the herd into retransmit-driven congestion
        # collapse (absorbing a retransmission costs CPU too).
        self.reject_queue_delay = reject_queue_delay
        self.max_queue_delay = max_queue_delay
        #: Simulation engine mode (see repro.workloads.scenarios); the
        #: outcome is engine-independent, only wall-clock changes.
        self.engine = engine

    def to_payload(self) -> Dict[str, object]:
        """All knobs as a JSON-able dict (spec format for the parallel
        executor's ``resilience`` job kind; hashed into the run cache)."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "headroom": self.headroom,
            "load_factor": self.load_factor,
            "external_fraction": self.external_fraction,
            "loss": self.loss,
            "crash_node": self.crash_node,
            "crash_times": list(self.crash_times),
            "downtime": self.downtime,
            "run_for": self.run_for,
            "drain": self.drain,
            "monitor_period": self.monitor_period,
            "noise_sigma": self.noise_sigma,
            "reject_queue_delay": self.reject_queue_delay,
            "max_queue_delay": self.max_queue_delay,
            "engine": self.engine,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ResilienceParams":
        kwargs = dict(payload)
        kwargs["seed"] = int(kwargs["seed"])
        return cls(**kwargs)

    def offered_load(self) -> float:
        """Total paper-unit cps: comfortably below hardware capacity
        (no overload meltdown) yet above S1's headroom-scaled planning
        band, so a SERvartuka S1 delegates every pass-through call."""
        t_sf, _t_sl = entry_node_thresholds()
        return self.load_factor * t_sf

    def schedule(self) -> FaultSchedule:
        """Loss on both of S1's downstream links (request direction --
        the direction whose loss is unrecoverable once the retransmitter
        dies), plus the crash/restart train on S1."""
        schedule = FaultSchedule()
        schedule.set_loss(0.0, "S1", "S2", self.loss, symmetric=False)
        schedule.set_loss(0.0, "S1", "uas_int", self.loss, symmetric=False)
        for t in self.crash_times:
            schedule.crash(t, self.crash_node, downtime=self.downtime)
        return schedule


class PlacementOutcome:
    """Whole-run call accounting for one placement under the schedule."""

    def __init__(self, placement: str):
        self.placement = placement
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.lost = 0            # timed out: the unrecoverable losses
        self.shed_500 = 0        # overload rejections (reported apart)
        self.in_flight = 0       # unresolved at the end of the drain
        self.recovered = 0       # completed only thanks to retransmission
        self.recovery_p95_ms = 0.0
        self.state_lost = 0      # transactions+dialogs destroyed by crashes
        self.crashes = 0
        self.custody_fraction = 0.0  # S1's stateful share of INVITE decisions

    def as_row(self) -> list:
        return [
            self.placement,
            self.attempted,
            self.completed,
            self.lost,
            self.shed_500,
            self.recovered,
            self.state_lost,
            round(self.custody_fraction, 3),
        ]

    def as_dict(self) -> Dict[str, object]:
        return {
            "placement": self.placement,
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "lost": self.lost,
            "shed_500": self.shed_500,
            "in_flight": self.in_flight,
            "recovered": self.recovered,
            "recovery_p95_ms": round(self.recovery_p95_ms, 2),
            "state_lost": self.state_lost,
            "crashes": self.crashes,
            "custody_fraction": round(self.custody_fraction, 4),
        }

    def to_payload(self) -> Dict[str, object]:
        """Full-precision counterpart of :meth:`as_dict` (nothing
        rounded); the parallel executor's wire and cache format."""
        return {
            "placement": self.placement,
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "lost": self.lost,
            "shed_500": self.shed_500,
            "in_flight": self.in_flight,
            "recovered": self.recovered,
            "recovery_p95_ms": self.recovery_p95_ms,
            "state_lost": self.state_lost,
            "crashes": self.crashes,
            "custody_fraction": self.custody_fraction,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "PlacementOutcome":
        outcome = cls(payload["placement"])
        for name in (
            "attempted", "completed", "failed", "lost", "shed_500",
            "in_flight", "recovered", "recovery_p95_ms", "state_lost",
            "crashes", "custody_fraction",
        ):
            setattr(outcome, name, payload[name])
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PlacementOutcome {self.placement} lost={self.lost} "
            f"recovered={self.recovered} state_lost={self.state_lost}>"
        )


def build_resilience_scenario(
    placement: str, params: ResilienceParams
) -> Scenario:
    """One placement of the internal/external mix, faults installed."""
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}; one of {PLACEMENTS}")
    config = ScenarioConfig(
        scale=params.scale,
        seed=params.seed,
        noise_sigma=params.noise_sigma,
        monitor_period=params.monitor_period,
        timers=RESILIENCE_TIMERS,
        reject_queue_delay=params.reject_queue_delay,
        max_queue_delay=params.max_queue_delay,
        engine=params.engine,
    )
    scenario = internal_external(
        params.offered_load(),
        params.external_fraction,
        policy=placement,
        config=config,
    )
    if placement == "servartuka":
        # Plan S1 against headroom-scaled capacity so its measured rate
        # always exceeds the scaled band: zero myshare for the external
        # path (all pass-through state delegated to S2) while Algorithm
        # 1 still takes custody of every internal (terminating) call.
        # S2 keeps full-capacity planning and absorbs the delegation.
        scenario.proxies[params.crash_node].policy.config.headroom = (
            params.headroom
        )
    scenario.install_faults(params.schedule())
    return scenario


def _measure(
    scenario: Scenario, placement: str, params: ResilienceParams
) -> PlacementOutcome:
    outcome = PlacementOutcome(placement)
    for generator in scenario.generators:
        metrics = generator.metrics
        outcome.attempted += generator.calls_attempted
        outcome.completed += generator.calls_completed
        outcome.failed += generator.calls_failed
        outcome.lost += metrics.counter("failure_invite_timeout").value
        outcome.lost += metrics.counter("failure_bye_timeout").value
        outcome.shed_500 += metrics.counter("failure_invite_500").value
        outcome.shed_500 += metrics.counter("failure_bye_500").value
        outcome.in_flight += len(generator._calls)
        outcome.recovered += metrics.counter(
            "calls_recovered_by_retransmission"
        ).value
        histogram = metrics.histogram("recovery_latency")
        if histogram.count:
            outcome.recovery_p95_ms = max(
                outcome.recovery_p95_ms, histogram.percentile(95) * 1e3
            )
    for proxy in scenario.proxies.values():
        outcome.state_lost += proxy.metrics.counter(
            "transactions_lost_on_crash"
        ).value
        outcome.state_lost += proxy.metrics.counter("dialogs_lost_on_crash").value
        outcome.crashes += proxy.metrics.counter("crashes").value
    entry = scenario.proxies[params.crash_node]
    stateful = entry.metrics.counter("invites_stateful").value
    stateless = entry.metrics.counter("invites_stateless").value
    if stateful + stateless:
        outcome.custody_fraction = stateful / (stateful + stateless)
    return outcome


def run_resilience(
    params: Optional[ResilienceParams] = None,
    placements: Sequence[str] = PLACEMENTS,
) -> Dict[str, PlacementOutcome]:
    """Run the fault campaign once per placement; same seed and schedule.

    Counters are whole-run (the schedule *is* the experiment, there is
    no steady-state window): every attempted call is driven to
    completion, timeout, or rejection by the post-load drain, which
    outlasts Timer B.

    The campaign fans one worker per placement through the parallel
    executor (and its run cache) under the ambient
    :class:`~repro.harness.parallel.ExecutionContext`; with the default
    context it executes inline, byte-identically.
    """
    from repro.harness.parallel import RunSpec, run_specs

    params = params or ResilienceParams()
    specs = [
        RunSpec(
            kind="resilience",
            payload={"placement": placement, "params": params.to_payload()},
            label=f"resilience/{placement}",
        )
        for placement in placements
    ]
    payloads = run_specs(specs)
    return {
        placement: PlacementOutcome.from_payload(payload["outcome"])
        for placement, payload in zip(placements, payloads)
    }


def resilience_figure(quality: Quality = QUICK) -> FigureData:
    """The ``resilience`` experiment as a :class:`FigureData`.

    The paper reports no crash numbers, so the comparison table is the
    experiment's own headline claim: calls lost under identical fault
    schedules order static > SERvartuka > stateless.
    """
    params = ResilienceParams(scale=quality.scale, seed=quality.seed)
    outcomes = run_resilience(params)
    rows = [outcomes[p].as_row() for p in PLACEMENTS]
    lost = {p: outcomes[p].lost for p in PLACEMENTS}
    ordering_holds = lost["static"] > lost["servartuka"] > lost["stateless"]
    comparisons = [
        [
            "calls lost (static > servartuka > stateless)",
            "expected",
            f"{lost['static']} > {lost['servartuka']} > {lost['stateless']}",
            "ok" if ordering_holds else "VIOLATED",
        ],
    ]
    return FigureData(
        figure_id="resilience",
        title="Call loss under proxy crashes, by state placement",
        columns=[
            "placement", "attempted", "completed", "lost", "shed_500",
            "recovered", "state_lost", "custody",
        ],
        rows=rows,
        description=(
            "Figure-7 topology (internal calls terminate at S1, external "
            "calls pass through to S2); S1 crashes "
            f"{len(params.crash_times)} times (downtime {params.downtime:g} "
            f"s) with {params.loss:.0%} request loss on both of its "
            f"downstream links; offered load {params.offered_load():.0f} cps "
            f"({params.external_fraction:.0%} external).  'lost' are Timer "
            "B/F timeouts -- calls whose only retransmission state died "
            "with the crashed proxy; 'recovered' completed only thanks to "
            "RFC 3261 retransmission."
        ),
        comparisons=comparisons,
        notes=(
            "The reliability flip side of the paper's throughput trade-off: "
            "state custody concentrates loss at the node that holds it.  "
            "SERvartuka's exposure equals its custody share (the internal "
            "fraction); delegated pass-through calls survive the crash "
            "because their callers were never told to stop retransmitting."
        ),
    )
