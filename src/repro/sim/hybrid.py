"""Hybrid fluid/DES engine: fast-forward steady state, simulate transients.

The hybrid rung runs per-message DES exactly like ``turbo`` until an
online steady-state detector declares quiescence, then excises a
stretch of simulated time in one :meth:`~repro.sim.events.EventLoop.jump`:

- the *arrival processes* are replayed exactly (same RNG stream, same
  draw order), so post-jump call numbering and arrival times are
  bit-identical to what the non-hybrid engines produce;
- *counters* advance in bulk, ratio-credited against the exactly-known
  number of skipped arrivals using the rates measured over the
  detector's flat window (fractional remainders carry across jumps);
- *CPU accounting* receives the extrapolated busy time and the tick
  baselines shift so occupancy stays continuous;
- *in-flight protocol state* (transactions, calls, policy baselines)
  shifts with the clock and resumes exactly where it paused.

Unlike ``turbo``, hybrid is contracted by **tolerance**, not
bit-identity: goodput within 1% of turbo, per-node myshare within 2
points, call-outcome counts within a pinned band (see
``tests/engine/test_hybrid_differential.py``).  Deliberately excluded
from the contract: ``events_processed`` (skipped events are skipped --
reporting them would fake the benchmark), network packet counts, and
response-time histogram *counts* (live samples only; the latencies
themselves remain steady-state and unbiased).

Jumps never cross a *transient*: workload ramp edges and fault events
are registered via :meth:`EventLoop.note_transient` (and their handles
anchored so a planning bug could not displace them); the planner stops
a guard interval short.  Runs with an overload controller attached
never jump at all -- AIMD cuts and panic/drain hysteresis are exactly
the per-message dynamics the control experiments study.  The predicted
overload knee from :class:`repro.core.fluid.ClusterFluidModel` gates
jumps away from the saturation region, where ``x(L)``'s reject/
retransmission dynamics must stay in DES.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import deque
from typing import Dict, List, Optional

from repro.core.costmodel import scenario_features
from repro.core.fluid import ClusterFluidModel, FluidModel


class HybridConfig:
    """Tunables for the hybrid engine's detector and jump planner.

    Parameters
    ----------
    window:
        Consecutive flat control periods required before quiescence is
        declared (the K of the detector), and the calibration window
        for ratio credits.
    guard:
        Seconds of per-message DES to run before any scheduled
        transient (ramp edge, fault event).
    min_jump:
        Jumps shorter than this are not worth the bookkeeping.
    band_sigma, band_floor:
        Arrival/completion flatness band: a per-period count within
        ``band_sigma * sqrt(ema) + band_floor`` of its EMA is flat
        (Poisson noise scales with the square root of the expectation,
        so a fixed relative band would either flap at low rates or
        mask drift at high ones).
    occupancy_band:
        Absolute flatness band for per-node CPU occupancy.
    max_queue_delay:
        Per-node committed-work horizon (seconds) above which the node
        is considered to be building backlog, not steady.
    knee_margin:
        Jumps require offered load below this fraction of the cluster
        fluid model's predicted knee.
    sample_period:
        Detector cadence; ``None`` uses the scenario's monitor period.
    """

    __slots__ = (
        "window", "guard", "min_jump", "band_sigma", "band_floor",
        "occupancy_band", "max_queue_delay", "knee_margin", "sample_period",
    )

    def __init__(
        self,
        window: int = 6,
        guard: float = 1.0,
        min_jump: float = 1.0,
        band_sigma: float = 6.0,
        band_floor: float = 4.0,
        occupancy_band: float = 0.15,
        max_queue_delay: float = 0.25,
        knee_margin: float = 0.9,
        sample_period: Optional[float] = None,
    ):
        if window < 2:
            raise ValueError(f"window must be >= 2: {window}")
        if guard < 0 or min_jump <= 0:
            raise ValueError("require guard >= 0 and min_jump > 0")
        self.window = int(window)
        self.guard = float(guard)
        self.min_jump = float(min_jump)
        self.band_sigma = float(band_sigma)
        self.band_floor = float(band_floor)
        self.occupancy_band = float(occupancy_band)
        self.max_queue_delay = float(max_queue_delay)
        self.knee_margin = float(knee_margin)
        self.sample_period = (
            None if sample_period is None else float(sample_period)
        )

    @classmethod
    def coerce(cls, value) -> "Optional[HybridConfig]":
        """None | HybridConfig | payload dict -> HybridConfig | None."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_payload(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to HybridConfig")

    def to_payload(self) -> dict:
        return {
            "window": self.window,
            "guard": self.guard,
            "min_jump": self.min_jump,
            "band_sigma": self.band_sigma,
            "band_floor": self.band_floor,
            "occupancy_band": self.occupancy_band,
            "max_queue_delay": self.max_queue_delay,
            "knee_margin": self.knee_margin,
            "sample_period": self.sample_period,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "HybridConfig":
        return cls(**payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HybridConfig window={self.window} guard={self.guard} "
            f"min_jump={self.min_jump}>"
        )


class Sample:
    """One detector observation: per-period deltas, not cumulatives."""

    __slots__ = (
        "arrivals", "completions", "occupancy", "queue_delay", "disturbances",
    )

    def __init__(
        self,
        arrivals: float,
        completions: float,
        occupancy: Dict[str, float],
        queue_delay: float,
        disturbances: float,
    ):
        self.arrivals = arrivals
        self.completions = completions
        self.occupancy = occupancy
        self.queue_delay = queue_delay
        self.disturbances = disturbances


class SteadyStateDetector:
    """EMA flatness detector over arrival, occupancy and queue signals.

    Declares quiescence after ``config.window`` *consecutive* samples
    in which every signal sits inside its band and no disturbance
    (failed call, retransmission, reject, overload drop) occurred.
    Purely data-driven and synchronous, so tests can drive it with
    synthetic sample streams.
    """

    #: EMA smoothing factor (weight of the newest sample).
    alpha = 0.4
    #: Long-memory smoothing for the disturbance *rate*.  Much slower
    #: than ``alpha`` on purpose: a system shedding a sparse steady
    #: trickle (say 3% of calls) produces clean one-second windows a
    #: few percent of the time, and jumping on one of those lucky
    #: windows would credit calls the live engines lose.  The slow EMA
    #: remembers the loss process across clean windows.
    dist_alpha = 0.15
    #: Sustained disturbances-per-sample above this block quiescence
    #: even when the current window itself is disturbance-free.
    dist_epsilon = 0.05

    def __init__(self, config: HybridConfig):
        self.config = config
        self.samples_seen = 0
        self._streak = 0
        self._dist_ema = 0.0
        self._ema_arrivals: Optional[float] = None
        self._ema_completions: Optional[float] = None
        self._ema_occupancy: Dict[str, float] = {}

    @property
    def steady(self) -> bool:
        return self._streak >= self.config.window

    @property
    def streak(self) -> int:
        return self._streak

    def reset(self) -> None:
        # The disturbance EMA deliberately survives a reset: a reset
        # re-establishes the *baseline* (after a jump or a topology
        # change), but the loss process it remembers is a property of
        # the system, not of the baseline.
        self._streak = 0
        self._ema_arrivals = None
        self._ema_completions = None
        self._ema_occupancy = {}

    def _count_band(self, ema: float, value: float = 0.0) -> float:
        # Symmetric in (ema, value): the gap between two Poisson counts
        # has variance lambda1 + lambda2, so banding on the EMA alone
        # underestimates whenever the baseline happened to seed from a
        # low-tail draw.
        cfg = self.config
        return cfg.band_sigma * math.sqrt(max(ema, value, 1.0)) + cfg.band_floor

    def observe(self, sample: Sample) -> bool:
        """Feed one period's deltas; returns the new ``steady`` state."""
        cfg = self.config
        self.samples_seen += 1
        self._dist_ema += self.dist_alpha * (
            sample.disturbances - self._dist_ema
        )
        flat = True
        if sample.disturbances > 0 or self._dist_ema > self.dist_epsilon:
            flat = False
        if sample.queue_delay > cfg.max_queue_delay:
            flat = False
        ema_a = self._ema_arrivals
        if ema_a is None:
            # First sample only establishes the baseline.
            flat = False
            self._ema_arrivals = float(sample.arrivals)
            self._ema_completions = float(sample.completions)
            self._ema_occupancy = dict(sample.occupancy)
        else:
            if abs(sample.arrivals - ema_a) > self._count_band(ema_a, sample.arrivals):
                flat = False
            ema_c = self._ema_completions
            if abs(sample.completions - ema_c) > self._count_band(ema_c, sample.completions):
                flat = False
            ema_o = self._ema_occupancy
            if set(ema_o) != set(sample.occupancy):
                # Topology changed under us (crash/restart): start over.
                flat = False
                self._ema_occupancy = dict(sample.occupancy)
            else:
                # A period with N calls measures occupancy with noise
                # sigma ~ occ/sqrt(N) (each call contributes ~occ/N busy
                # seconds), so the band must widen at low per-period
                # counts exactly like the count bands do -- a flat
                # absolute band would reject genuinely quiescent
                # low-rate topologies on per-period sampling noise.
                occ_noise = 0.5 * cfg.band_sigma / math.sqrt(max(ema_a, 1.0))
                for name, occ in sample.occupancy.items():
                    band = max(cfg.occupancy_band, ema_o[name] * occ_noise)
                    if abs(occ - ema_o[name]) > band:
                        flat = False
            alpha = self.alpha
            self._ema_arrivals = ema_a + alpha * (sample.arrivals - ema_a)
            self._ema_completions = ema_c + alpha * (sample.completions - ema_c)
            for name, occ in sample.occupancy.items():
                prev = self._ema_occupancy.get(name, occ)
                self._ema_occupancy[name] = prev + alpha * (occ - prev)
        self._streak = self._streak + 1 if flat else 0
        return self.steady


class TransientSchedule:
    """Sorted absolute times of scheduled transients (ramp edges,
    fault events).  The planner never jumps across one and refuses to
    declare quiescence while one sits inside the detection lookback."""

    def __init__(self, times=()):
        self._times: List[float] = sorted(float(t) for t in times)

    def __len__(self) -> int:
        return len(self._times)

    def add(self, when: float) -> None:
        insort(self._times, float(when))

    def extend(self, times) -> None:
        for when in times:
            self.add(when)

    def next_after(self, t: float) -> Optional[float]:
        """Earliest transient strictly after ``t`` (None if none)."""
        index = bisect_right(self._times, t)
        if index == len(self._times):
            return None
        return self._times[index]

    def blocks(self, t0: float, t1: float) -> bool:
        """True when any transient falls within ``[t0, t1]``."""
        index = bisect_right(self._times, t0 - 1e-12)
        return index < len(self._times) and self._times[index] <= t1


class _Cumulative:
    """Cumulative counter snapshot used for deltas and ratio credits."""

    #: Per-call B2BUA counters: in a disturbance-free steady window each
    #: bridged call contributes exactly one of each.  The first group is
    #: arrival-aligned (incremented within a round-trip of the INVITE
    #: arriving), the second completion-aligned (incremented when the
    #: call tears down) -- credits anchor each group on the matching
    #: generator-side delta so the window's in-flight lag cancels.
    B2BUA_ARRIVAL_COUNTERS = ("calls_received", "b2b_invites_sent")
    B2BUA_COMPLETION_COUNTERS = (
        "calls_answered", "acks_received", "acks_sent",
        "byes_sent", "calls_completed",
    )
    B2BUA_COUNTERS = B2BUA_ARRIVAL_COUNTERS + B2BUA_COMPLETION_COUNTERS

    __slots__ = (
        "time", "attempted", "gens", "servers", "proxies", "b2buas",
        "disturbances", "max_queue_delay", "all_alive",
    )

    def __init__(self, scenario):
        loop = scenario.loop
        self.time = loop.now
        disturbances = 0.0
        attempted = 0
        gens: Dict[str, tuple] = {}
        for g in scenario.generators:
            row = (
                g.calls_attempted, g.calls_completed, g.calls_failed,
                g.calls_with_100,
            )
            gens[g.name] = row
            attempted += row[0]
            disturbances += row[2] + g.retransmissions()
        servers: Dict[str, tuple] = {}
        for s in scenario.servers:
            counters = s.metrics
            servers[s.name] = (
                s.calls_received,
                counters.counter("calls_answered").value,
                counters.counter("acks_received").value,
                s.calls_completed,
            )
        b2buas: Dict[str, tuple] = {}
        for b in getattr(scenario, "b2buas", ()):
            counters = b.metrics
            b2buas[b.name] = tuple(
                counters.counter(name).value for name in self.B2BUA_COUNTERS
            )
            disturbances += (
                counters.counter("calls_failed").value
                + counters.counter("calls_never_acked").value
                + counters.counter("late_responses").value
            )
        proxies: Dict[str, tuple] = {}
        max_qdelay = 0.0
        all_alive = True
        for name, p in scenario.proxies.items():
            cpu = p.cpu
            proxies[name] = (
                cpu.busy_seconds,
                p.metrics.counter("invites_stateful").value,
                p.metrics.counter("invites_stateless").value,
                dict(cpu.component_seconds),
            )
            disturbances += (
                p.metrics.counter("rejected_500").value
                + p.metrics.counter("messages_dropped_overload").value
                + cpu.jobs_rejected
            )
            max_qdelay = max(max_qdelay, cpu.queue_delay())
            all_alive = all_alive and p.alive
        self.attempted = attempted
        self.gens = gens
        self.servers = servers
        self.proxies = proxies
        self.b2buas = b2buas
        self.disturbances = disturbances
        self.max_queue_delay = max_qdelay
        self.all_alive = all_alive


class HybridRuntime:
    """Drives detection, planning and execution of fast-forward jumps.

    Jumps happen only while *armed*: the harness arms a barrier (the
    current measurement-segment deadline) around each ``run_until``
    drive, so a scenario driven directly -- slice-sampling fingerprints,
    ad-hoc loops -- behaves as pure turbo.  The jump target is
    ``min(barrier, next transient - guard)``; the loop-level anchor
    mechanism independently guarantees no absolute-time commitment can
    be displaced even if planning were wrong.
    """

    def __init__(self, scenario, config: Optional[HybridConfig] = None):
        self.scenario = scenario
        self.config = config or HybridConfig()
        self.loop = scenario.loop
        self.period = (
            self.config.sample_period
            if self.config.sample_period is not None
            else scenario.config.monitor_period
        )
        self.detector = SteadyStateDetector(self.config)
        self.transients = TransientSchedule()
        self._transient_cursor = 0
        self._barrier: Optional[float] = None
        self._handle = None
        self._last: Optional[_Cumulative] = None
        self._window: deque = deque(maxlen=self.config.window)
        self._credit_acc: Dict[tuple, float] = {}
        self.jumps: List[dict] = []
        self.skipped_calls = 0
        self.skipped_seconds = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._tick()

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._started = False

    def arm(self, barrier: float) -> None:
        """Allow jumps up to ``barrier`` (a run_until deadline)."""
        self._barrier = float(barrier)

    def disarm(self) -> None:
        self._barrier = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        scenario = self.scenario
        now = self.loop.now
        snap = _Cumulative(scenario)
        last = self._last
        if last is not None:
            self.detector.observe(self._sample(last, snap))
        self._last = snap
        self._window.append(snap)
        if (
            self._barrier is not None
            and self.detector.steady
            and len(self._window) == self._window.maxlen
        ):
            self._maybe_jump(now, snap)
        self._handle = self.loop.schedule(self.period, self._tick)

    def _sample(self, last: _Cumulative, snap: _Cumulative) -> Sample:
        elapsed = snap.time - last.time
        occupancy = {}
        for name, row in snap.proxies.items():
            prev = last.proxies.get(name)
            busy_delta = row[0] - (prev[0] if prev else 0.0)
            occupancy[name] = (
                min(1.0, busy_delta / elapsed) if elapsed > 0 else 0.0
            )
        return Sample(
            arrivals=snap.attempted - last.attempted,
            completions=(
                sum(r[3] for r in snap.servers.values())
                - sum(r[3] for r in last.servers.values())
            ),
            occupancy=occupancy,
            queue_delay=snap.max_queue_delay,
            disturbances=snap.disturbances - last.disturbances,
        )

    def _sync_transients(self) -> None:
        times = self.loop.transients
        while self._transient_cursor < len(times):
            self.transients.add(times[self._transient_cursor])
            self._transient_cursor += 1

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _maybe_jump(self, now: float, snap: _Cumulative) -> None:
        cfg = self.config
        scenario = self.scenario
        self._sync_transients()
        target = self._barrier
        upcoming = self.transients.next_after(now)
        if upcoming is not None:
            target = min(target, upcoming - cfg.guard)
        if target - now < max(cfg.min_jump, self.period):
            return
        # Structural transient protection: the statistical bands cannot
        # be trusted if a scheduled transient sits inside the window the
        # flatness was measured over (or just ahead of the landing).
        if self.transients.blocks(
            now - cfg.window * self.period, now + cfg.guard
        ):
            return
        proxies = scenario.proxies.values()
        if any(p.control is not None for p in proxies):
            # Overload-control dynamics are per-message by definition;
            # hybrid never fast-forwards controlled runs.
            return
        if getattr(scenario, "registrars", None):
            # Registrar refresh timers are relative while the location
            # service expires bindings at absolute times: displacing a
            # pending refresh across a jump would lapse every binding
            # mid-run.  Registration-churn scenarios run as pure turbo.
            return
        if not snap.all_alive:
            return
        if any(g._backoff_until > now for g in scenario.generators):
            return
        base = self._window[0]
        elapsed = now - base.time
        d_attempt = snap.attempted - base.attempted
        if elapsed <= 0 or d_attempt <= 0:
            return
        offered_paper = (d_attempt / elapsed) * scenario.config.scale
        cluster = self._cluster_model(base, snap, d_attempt)
        if cluster is not None and not cluster.safe_to_forward(
            offered_paper, cfg.knee_margin
        ):
            return
        self._execute(now, target, base, snap, cluster, offered_paper)

    def _cluster_model(
        self, base: _Cumulative, snap: _Cumulative, d_attempt: int
    ) -> Optional[ClusterFluidModel]:
        scenario = self.scenario
        cost_model = getattr(scenario, "cost_model", None)
        models: Dict[str, FluidModel] = {}
        shares: Dict[str, float] = {}
        try:
            for name, proxy in scenario.proxies.items():
                mode = (
                    "authentication"
                    if getattr(proxy, "auth_policy", None) is not None
                    else "transaction_stateful"
                )
                models[name] = FluidModel(
                    cost_model=cost_model,
                    features=scenario_features(mode),
                )
                prev = base.proxies.get(name)
                row = snap.proxies.get(name)
                seen = 0.0
                if prev is not None and row is not None:
                    seen = (row[1] + row[2]) - (prev[1] + prev[2])
                shares[name] = max(seen / d_attempt, 1e-6)
            return ClusterFluidModel(models, shares) if models else None
        except (ValueError, KeyError):
            return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _skipped_by_server(
        self, skipped_by_aor: Dict[str, int]
    ) -> Optional[Dict[str, int]]:
        """Resolve per-AOR skip tallies to per-server ones, or ``None``
        when any AOR is not bound to exactly one node (true forking),
        in which case the caller falls back to a windowed split."""
        location = getattr(self.scenario, "location", None)
        if location is None:
            return None
        by_server: Dict[str, int] = {}
        for aor, count in skipped_by_aor.items():
            bindings = location.bindings_for(aor)
            if len(bindings) != 1:
                return None
            node = bindings[0].node
            by_server[node] = by_server.get(node, 0) + count
        return by_server

    def _credit(self, metrics, counter: str, amount: float, key: tuple) -> None:
        """Integer-credit with a persistent fractional accumulator, so
        repeated jumps never lose sub-call remainders."""
        if amount <= 0:
            return
        acc = self._credit_acc.get(key, 0.0) + amount
        whole = int(acc)
        self._credit_acc[key] = acc - whole
        if whole:
            metrics.counter(counter).increment(whole)

    def _execute(
        self,
        now: float,
        target: float,
        base: _Cumulative,
        snap: _Cumulative,
        cluster: Optional[ClusterFluidModel],
        offered_paper: float,
    ) -> None:
        scenario = self.scenario
        dt = target - now
        d_attempt = snap.attempted - base.attempted

        # 1. Replay every arrival process exactly (RNG-faithful); the
        #    replacement handles are anchored so step 4 cannot move them.
        skipped_by_gen: Dict[str, int] = {}
        skipped_by_aor: Dict[str, int] = {}
        skipped = 0
        for g in scenario.generators:
            by_dest = g.fast_forward_arrivals(target)
            n = sum(by_dest.values())
            skipped_by_gen[g.name] = n
            for aor, count in by_dest.items():
                skipped_by_aor[aor] = skipped_by_aor.get(aor, 0) + count
            skipped += n
        # Mix ratios anchor on *completed* calls, not attempted ones:
        # per-call quantities (INVITEs seen at a proxy, busy seconds,
        # 100 Trying) are all incurred by the same calls that complete,
        # so boundary in-flight calls offset numerator and denominator
        # together and cancel; an attempt-anchored denominator would
        # carry the full +-1/window quantization into every credit.
        d_completed = sum(
            snap.gens[name][1] - base.gens[name][1]
            for name in snap.gens if name in base.gens
        )
        factor = skipped / d_completed if d_completed > 0 else skipped / d_attempt

        # 2. Credit counters.  The detector required every sample in the
        #    calibration window to be disturbance-free (no failures,
        #    rejects, drops or retransmits), so structurally *every*
        #    skipped call completes: completion-family counters credit
        #    the exact per-generator skip counts rather than a windowed
        #    rate estimate (whose in-flight boundary noise would leak
        #    ~1-2% into goodput).  Windowed ratios are used only for mix
        #    shares, where the noise cancels in the ratios that matter
        #    (myshare = sf / (sf + sl)).
        for g in scenario.generators:
            prev = base.gens.get(g.name)
            row = snap.gens.get(g.name)
            n = skipped_by_gen.get(g.name, 0)
            if n <= 0:
                continue
            self._credit(
                g.metrics, "calls_completed", float(n),
                ("uac", g.name, "calls_completed"),
            )
            trying = 1.0
            if prev is not None and row is not None:
                d_gen = row[1] - prev[1]
                if d_gen > 0:
                    trying = min(1.0, max(0.0, (row[3] - prev[3]) / d_gen))
            self._credit(
                g.metrics, "calls_with_100", n * trying,
                ("uac", g.name, "calls_with_100"),
            )
        # UAS side: every skipped call lands on exactly one server, and
        # the replay's per-AOR tallies plus the location service give
        # that server exactly -- no windowed share estimate (whose
        # binomial noise over a short calibration window would smear a
        # few percent between servers in multi-UAS topologies).
        skipped_by_server = self._skipped_by_server(skipped_by_aor)
        if skipped_by_server is None:
            # Ambiguous registration (an AOR bound to several nodes):
            # fall back to splitting by each server's share of the
            # calibration window (totals stay exact).
            skipped_by_server = {}
            deltas = {}
            for s in scenario.servers:
                prev = base.servers.get(s.name)
                row = snap.servers.get(s.name)
                deltas[s.name] = (
                    row[0] - prev[0]
                    if prev is not None and row is not None else 0
                )
            total = sum(deltas.values())
            for s in scenario.servers:
                skipped_by_server[s.name] = skipped * (
                    deltas[s.name] / total if total > 0
                    else 1.0 / max(len(scenario.servers), 1)
                )
        for s in scenario.servers:
            n = skipped_by_server.get(s.name, 0)
            if n <= 0:
                continue
            # In a disturbance-free steady window each call contributes
            # exactly one INVITE, one 200, one ACK and one completion.
            for counter in (
                "calls_received", "calls_answered",
                "acks_received", "calls_completed",
            ):
                self._credit(
                    s.metrics, counter, float(n), ("uas", s.name, counter)
                )
        # B2BUA legs: a bridged call contributes one of each per-call
        # counter, credited by the B2BUA's share of the calibration
        # window (exact in single-B2BUA chains, proportional otherwise).
        # Arrival-aligned counters anchor on attempted calls and
        # completion-aligned ones on completed calls so the numerator
        # and denominator lag the window boundary together and cancel.
        arrival_factor = skipped / d_attempt if d_attempt > 0 else factor
        n_arrival = len(_Cumulative.B2BUA_ARRIVAL_COUNTERS)
        for b in getattr(scenario, "b2buas", ()):
            prev = base.b2buas.get(b.name)
            row = snap.b2buas.get(b.name)
            if prev is None or row is None:
                continue
            for index, counter in enumerate(_Cumulative.B2BUA_COUNTERS):
                delta = row[index] - prev[index]
                if delta > 0:
                    self._credit(
                        b.metrics, counter,
                        delta * (arrival_factor if index < n_arrival
                                 else factor),
                        ("b2bua", b.name, counter),
                    )

        # 3. CPU + protocol state per proxy, then in-flight call state.
        for name, proxy in scenario.proxies.items():
            prev = base.proxies.get(name)
            row = snap.proxies.get(name)
            busy_credit = 0.0
            component_credits: Dict[str, float] = {}
            if prev is not None and row is not None:
                busy_credit = (row[0] - prev[0]) * factor
                for comp, seconds in row[3].items():
                    delta = seconds - prev[3].get(comp, 0.0)
                    if delta > 0:
                        component_credits[comp] = delta * factor
                for index, counter in (
                    (1, "invites_stateful"), (2, "invites_stateless"),
                ):
                    self._credit(
                        proxy.metrics, counter,
                        (row[index] - prev[index]) * factor,
                        ("proxy", name, counter),
                    )
            proxy.cpu.fast_forward(dt, busy_credit, component_credits)
            proxy.fast_forward(dt)
        for g in scenario.generators:
            g.fast_forward(dt)

        # 4. Move the clock; pending work shifts, anchors hold still.
        self.loop.jump(dt)

        # 5. Bookkeeping, observability, and a fresh detection baseline
        #    (post-credit, so credits never read as live traffic).
        self.skipped_calls += skipped
        self.skipped_seconds += dt
        record = {
            "at": round(now, 6),
            "to": round(target, 6),
            "dt": round(dt, 6),
            "skipped_calls": skipped,
            "credit_factor": round(factor, 6),
            "offered_paper_cps": round(offered_paper, 3),
        }
        if cluster is not None:
            predicted = cluster.extrapolate(offered_paper, dt)
            record["predicted_goodput_calls"] = round(
                predicted["goodput_calls"], 3
            )
            record["predicted_busy_seconds"] = {
                name: round(value, 6)
                for name, value in predicted["busy_seconds"].items()
            }
        self.jumps.append(record)
        observer = getattr(scenario, "observer", None)
        if observer is not None and hasattr(observer, "note_fast_forward"):
            observer.note_fast_forward(record)
        self.detector.reset()
        self._window.clear()
        self._last = _Cumulative(scenario)
        self._window.append(self._last)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "jump_count": len(self.jumps),
            "skipped_seconds": round(self.skipped_seconds, 6),
            "skipped_calls": self.skipped_calls,
            "sample_period": self.period,
            "jumps": list(self.jumps),
        }
