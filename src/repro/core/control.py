"""Pluggable overload control: shed *calls* once shedding state is not
enough.

SERvartuka (the paper) redistributes *state* under load but leaves open
the regime where the aggregate offered load exceeds the aggregate
capacity of the whole server chain -- the regime in which SIP servers
historically suffer congestion collapse from retransmission avalanches
(Shen/Schulzrinne/Nahum, "SIP Server Overload Control: Design and
Evaluation").  This module adds that missing layer as a pluggable
per-proxy admission controller, following the classic taxonomy:

- :class:`RateControl` -- AIMD on the admitted new-call rate.  When the
  CPU runs above target the cap shrinks multiplicatively toward the
  measured admitted rate; while underloaded it creeps up additively (a
  fraction of the node's capacity per period) and disappears entirely
  once it is far above capacity.
- :class:`WindowControl` -- a per-upstream window of outstanding calls
  (admitted INVITEs without a final response), AIMD on the window size.
  This is the SIP analogue of TCP's congestion window and gives each
  upstream neighbor an explicit fair slot allocation.
- :class:`OccupancyControl` -- the occupancy algorithm: an admission
  fraction ``f`` driven by the measured CPU utilization toward a target
  occupancy (``f *= target/util`` when above, bounded growth when
  below).
- :class:`SignalControl` -- explicit feedback: the overloaded server
  sheds locally like the occupancy controller but every rejection is a
  real ``503 Service Unavailable`` carrying ``Retry-After``; an
  *upstream* proxy running the same policy reacts to observed 503s by
  shedding a growing fraction of traffic toward that next hop before it
  ever leaves the building, letting the pushback propagate hop by hop.

Controllers are deterministic (no RNG): fractional admission is
enforced by per-period admitted-vs-seen counter comparison, so every
engine rung replays the exact same admit/reject sequence (enforced by
tests/engine/test_differential_overload.py).

Dormant-overhead contract: ``control=None`` leaves every hot path at a
single ``is not None`` attribute test and the scenario-config payload
without a ``"control"`` key, so pre-existing run-cache keys are
untouched (tests/harness/test_overload.py pins two of them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Recognised policy spec strings.
CONTROL_POLICIES = ("rate", "window", "occupancy", "signal")


def format_retry_after(seconds: float) -> str:
    """Render a Retry-After value the way real stacks emit it
    (integral seconds without a decimal point when possible)."""
    if seconds >= 1.0 and float(seconds).is_integer():
        return str(int(seconds))
    return f"{seconds:g}"


def parse_retry_after(text: Optional[str]) -> Optional[float]:
    """Parse a Retry-After header value; tolerates RFC 3261 comments
    and parameters (``"5 (overloaded);duration=60"``)."""
    if not text:
        return None
    head = text.split("(", 1)[0].split(";", 1)[0].strip()
    try:
        value = float(head)
    except ValueError:
        return None
    return value if value >= 0 else None


class ControlConfig:
    """JSON-able spec for one overload-control policy.

    Accepts the same coercions as :class:`repro.obs.observe.ObserveConfig`:
    ``None`` (off), a policy name string, a payload dict, or an
    existing config.  ``build()`` makes a fresh per-proxy policy
    instance, so proxies never share mutable controller state.
    """

    def __init__(
        self,
        policy: str,
        target_utilization: float = 0.85,
        beta: float = 0.85,
        increase: float = 0.05,
        min_fraction: float = 0.3,
        window: int = 32,
        window_beta: float = 0.8,
        window_cap: int = 256,
        hard_beta: float = 0.75,
        growth_limit: float = 1.1,
        retry_after: float = 0.5,
        signal_step: float = 0.5,
        signal_max_shed: float = 0.9,
    ):
        if policy not in CONTROL_POLICIES:
            raise ValueError(
                f"unknown control policy {policy!r}; one of "
                f"{list(CONTROL_POLICIES)}"
            )
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0.0 < beta < 1.0 or not 0.0 < window_beta < 1.0:
            raise ValueError("beta factors must be in (0, 1)")
        if not 0.0 < hard_beta < 1.0:
            raise ValueError("hard_beta must be in (0, 1)")
        if increase <= 0 or growth_limit < 1.0:
            raise ValueError("increase must be > 0 and growth_limit >= 1")
        if not 0.0 < min_fraction <= 1.0:
            raise ValueError("min_fraction must be in (0, 1]")
        if window < 1 or window_cap < window:
            raise ValueError("need 1 <= window <= window_cap")
        if retry_after < 0:
            raise ValueError("retry_after must be >= 0")
        if not 0.0 < signal_step <= 1.0 or not 0.0 < signal_max_shed < 1.0:
            raise ValueError("bad signal parameters")
        self.policy = policy
        self.target_utilization = target_utilization
        self.beta = beta
        self.increase = increase
        self.min_fraction = min_fraction
        self.window = int(window)
        self.window_beta = window_beta
        self.window_cap = int(window_cap)
        self.hard_beta = hard_beta
        self.growth_limit = growth_limit
        self.retry_after = retry_after
        self.signal_step = signal_step
        self.signal_max_shed = signal_max_shed

    @classmethod
    def coerce(cls, value) -> Optional["ControlConfig"]:
        """None/"off" -> None; name or payload dict -> config."""
        if value is None or isinstance(value, ControlConfig):
            return value
        if isinstance(value, str):
            name = value.strip().lower()
            if name in ("", "none", "off"):
                return None
            return cls(policy=name)
        if isinstance(value, dict):
            return cls.from_payload(value)
        raise TypeError(f"cannot coerce {value!r} to a ControlConfig")

    def to_payload(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "target_utilization": self.target_utilization,
            "beta": self.beta,
            "increase": self.increase,
            "min_fraction": self.min_fraction,
            "window": self.window,
            "window_beta": self.window_beta,
            "window_cap": self.window_cap,
            "hard_beta": self.hard_beta,
            "growth_limit": self.growth_limit,
            "retry_after": self.retry_after,
            "signal_step": self.signal_step,
            "signal_max_shed": self.signal_max_shed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ControlConfig":
        kwargs = dict(payload)
        for field in ("window", "window_cap"):
            if field in kwargs:
                kwargs[field] = int(kwargs[field])
        return cls(**kwargs)

    def build(self) -> "ControlPolicy":
        return _POLICY_CLASSES[self.policy](self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ControlConfig {self.policy}>"


class ControlPolicy:
    """Base class: per-period observation plus per-INVITE admission.

    The proxy calls :meth:`admit` at *plan* time for every new INVITE
    (before any state/auth decision), :meth:`observe` from its monitor
    timer after ``cpu.tick``, :meth:`note_final` when a final response
    for an admitted call passes back upstream, and :meth:`on_503` when
    a downstream 503 passes through.  All bookkeeping is deterministic
    and JSON-able; ``decision_log`` is part of the cross-engine
    differential fingerprint.
    """

    kind = "abstract"

    def __init__(self, config: ControlConfig):
        self.config = config
        #: Observability sink (repro.obs); pure recorder, None when off.
        self.telemetry = None
        #: One compact dict per monitor period (always on: it is the
        #: controller's decision trace, compared across engines).
        self.decision_log: List[Dict[str, object]] = []
        self.calls_seen = 0
        self.calls_admitted = 0
        self.calls_rejected = 0
        self._seen_period = 0
        self._admitted_period = 0
        self._proxy = None
        self._capacity = 0.0
        self._period = 1.0
        self._slot_timeout = 32.0
        #: Panic drain: once the CPU queue is pinned at its drop cap the
        #: system is bistable -- every response crosses a full queue, is
        #: retransmitted several times and keeps the CPU pegged however
        #: few new calls are admitted.  The only way out is to shed
        #: *everything* until the backlog flushes, then reopen.
        self._panic = False
        #: EMA-smoothed utilization: single-period readings carry the
        #: cost model's execution noise, and an AIMD cut triggered by a
        #: noise spike parks the controller below the true knee.
        self._util_smooth: Optional[float] = None

    # -- wiring --------------------------------------------------------
    def attach(self, proxy) -> None:
        """Bind to one proxy; capacity is the node's stateful-call
        threshold at attach time (sim cps), the same anchor SERvartuka
        plans against."""
        self._proxy = proxy
        self._capacity = proxy.state_thresholds()[0]
        self._period = proxy.config.monitor_period
        self._slot_timeout = proxy.timers.timer_b

    # -- admission -----------------------------------------------------
    def admit(self, src: str, ds_key: Optional[str], call_id: Optional[str],
              now: float) -> bool:
        """True to process this new INVITE, False to answer 503."""
        self._seen_period += 1
        self.calls_seen += 1
        ok = False if self._panic else self._admit(src, ds_key, call_id, now)
        if ok:
            self._admitted_period += 1
            self.calls_admitted += 1
        else:
            self.calls_rejected += 1
        return ok

    def _admit(self, src: str, ds_key: Optional[str],
               call_id: Optional[str], now: float) -> bool:
        raise NotImplementedError

    # -- per-period feedback ------------------------------------------
    def observe(self, now: float, utilization: float, queue_len: int,
                msg_rate: float) -> Dict[str, object]:
        """One control period: update the admission state from the
        measured CPU utilization and return the decision record."""
        self._update_panic(utilization)
        if self._util_smooth is None:
            self._util_smooth = utilization
        else:
            self._util_smooth = 0.5 * self._util_smooth + 0.5 * utilization
        decision = self._decide(now, utilization, queue_len, msg_rate)
        entry = {
            "time": now,
            "utilization": utilization,
            "queue_len": queue_len,
            "msg_rate": msg_rate,
            "seen": self._seen_period,
            "admitted": self._admitted_period,
            "panic": self._panic,
        }
        entry.update(decision)
        self.decision_log.append(entry)
        if self.telemetry is not None:
            self.telemetry.record_decision(dict(entry))
        self._seen_period = 0
        self._admitted_period = 0
        return decision

    def _decide(self, now: float, utilization: float, queue_len: int,
                msg_rate: float) -> Dict[str, object]:
        raise NotImplementedError

    def _update_panic(self, utilization: float) -> None:
        """Hysteresis on the CPU queue *delay*: enter panic when the
        backlog is pinned near the drop cap with the CPU pegged, leave
        once it has flushed.  All quantities are deterministic
        simulation state (``busy_until - now``)."""
        proxy = self._proxy
        if proxy is None:
            return
        cpu = proxy.cpu
        delay = cpu.queue_delay()
        cap = cpu.max_queue_delay
        deep = 0.8 * cap if cap > 0 else 2.0 * self._period
        clear = 0.1 * cap if cap > 0 else 0.25 * self._period
        if not self._panic:
            if utilization >= 0.99 and delay >= deep:
                self._panic = True
        elif delay <= clear:
            self._panic = False

    # -- optional hooks ------------------------------------------------
    def note_final(self, call_id: str, now: float) -> None:
        """A final response for an admitted call passed back upstream."""

    def on_503(self, origin: str, retry_after: Optional[str],
               now: float) -> None:
        """A downstream 503 passed through on its way upstream."""

    def on_node_crash(self, now: float) -> None:
        """Volatile controller state dies with the process."""
        self._seen_period = 0
        self._admitted_period = 0
        self._panic = False
        self._util_smooth = None

    def retry_after_value(self) -> float:
        return self.config.retry_after

    def stats(self) -> Dict[str, int]:
        return {
            "seen": self.calls_seen,
            "admitted": self.calls_admitted,
            "rejected": self.calls_rejected,
        }

    @property
    def name(self) -> str:
        return f"control:{self.kind}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.stats()}>"


class RateControl(ControlPolicy):
    """AIMD on the admitted new-call rate (sim cps).

    No cap exists until the first overloaded period; from then on the
    cap decreases multiplicatively (``beta``) whenever utilization is
    above target and creeps up by ``increase * capacity`` per period
    otherwise, dissolving once it is far above capacity.  Admission
    spends a per-period credit of ``rate * period`` calls.
    """

    kind = "rate"

    #: Token-bucket burst: how many admissions may fire back to back.
    #: Kept small so admitted calls are *paced* across the period
    #: rather than slammed into the CPU queue at the period boundary.
    BURST = 2.0

    def __init__(self, config: ControlConfig):
        super().__init__(config)
        self.rate: Optional[float] = None
        self._credit = self.BURST
        self._credit_at = 0.0

    def _admit(self, src, ds_key, call_id, now) -> bool:
        if self.rate is None:
            return True
        credit = min(self.BURST,
                     self._credit + (now - self._credit_at) * self.rate)
        self._credit_at = now
        if credit >= 1.0:
            self._credit = credit - 1.0
            return True
        self._credit = credit
        return False

    def _decide(self, now, utilization, queue_len, msg_rate):
        cfg = self.config
        floor = cfg.min_fraction * self._capacity
        if utilization > cfg.target_utilization:
            measured = self._admitted_period / self._period
            base = self.rate if self.rate is not None else measured
            if base <= 0.0:
                base = floor
            self.rate = max(floor, min(base, measured or base) * cfg.beta)
        elif self.rate is not None:
            self.rate += cfg.increase * self._capacity
            if self.rate >= 2.0 * self._capacity:
                self.rate = None  # fully recovered: lift the cap
        return {"admitted_rate": self.rate, "window": None}

    def on_node_crash(self, now):
        super().on_node_crash(now)
        self.rate = None
        self._credit = self.BURST
        self._credit_at = now


class WindowControl(ControlPolicy):
    """Per-upstream window of outstanding admitted calls.

    A slot is held from admission until the first final INVITE response
    passes back upstream through this proxy (or the Timer-B horizon
    expires it).  The window is shared AIMD state: multiplicative
    decrease when utilization is above target, +1 per calm period up to
    ``window_cap``.
    """

    kind = "window"

    def __init__(self, config: ControlConfig):
        super().__init__(config)
        self.window = config.window
        self._outstanding: Dict[str, int] = {}
        self._slots: Dict[str, Tuple[str, float]] = {}

    def _admit(self, src, ds_key, call_id, now) -> bool:
        held = self._outstanding.get(src, 0)
        if held >= self.window:
            return False
        self._outstanding[src] = held + 1
        if call_id is not None:
            self._slots[call_id] = (src, now)
        return True

    def note_final(self, call_id, now):
        slot = self._slots.pop(call_id, None)
        if slot is None:
            return
        src = slot[0]
        held = self._outstanding.get(src, 0)
        if held > 1:
            self._outstanding[src] = held - 1
        else:
            self._outstanding.pop(src, None)

    def _decide(self, now, utilization, queue_len, msg_rate):
        # Reap slots whose call never produced a final (lost downstream,
        # upstream gave up): past Timer B nothing can still answer.
        horizon = now - self._slot_timeout
        expired = [cid for cid, (_, at) in self._slots.items() if at <= horizon]
        for call_id in expired:
            self.note_final(call_id, now)
        cfg = self.config
        level = self._util_smooth if self._util_smooth is not None else utilization
        if level > cfg.target_utilization:
            self.window = max(1, int(self.window * cfg.window_beta))
        elif self.window < cfg.window_cap:
            # Grow multiplicatively out of a deep cut (the post-collapse
            # window can be 1; +1 per period would take half a minute to
            # reopen), additively once the window is healthy again.
            self.window = min(cfg.window_cap,
                              self.window + max(1, self.window // 4))
        return {"admitted_rate": None, "window": self.window}

    def on_node_crash(self, now):
        super().on_node_crash(now)
        self.window = self.config.window
        self._outstanding.clear()
        self._slots.clear()


class OccupancyControl(ControlPolicy):
    """Occupancy algorithm: admission fraction driven to a target CPU
    occupancy.  Because utilization saturates at 1.0 the controller
    cannot see *how* overloaded it is, so a pegged CPU triggers the
    stronger ``hard_beta`` cut; otherwise the classic ``f *=
    target/util`` step applies, with growth bounded per period."""

    kind = "occupancy"

    def __init__(self, config: ControlConfig):
        super().__init__(config)
        self.fraction = 1.0

    def _admit(self, src, ds_key, call_id, now) -> bool:
        if self.fraction >= 1.0:
            return True
        # Deterministic pacing: admit while the running period ratio
        # stays at or below the fraction (no RNG on the hot path).
        return self._admitted_period + 1 <= self.fraction * self._seen_period + 1e-9

    def _decide(self, now, utilization, queue_len, msg_rate):
        self._update_fraction(utilization)
        return {"admitted_rate": None, "window": None,
                "fraction": self.fraction}

    def _update_fraction(self, utilization: float) -> None:
        cfg = self.config
        level = self._util_smooth if self._util_smooth is not None else utilization
        if utilization >= 0.99:
            # A pegged reading is acted on raw: saturation hides *how*
            # overloaded the CPU is, so waiting for the EMA to catch up
            # only deepens the backlog.
            self.fraction = max(cfg.min_fraction, self.fraction * cfg.hard_beta)
        elif level > cfg.target_utilization:
            self.fraction = max(
                cfg.min_fraction,
                self.fraction * cfg.target_utilization / level,
            )
        elif self.fraction < 1.0:
            gain = cfg.target_utilization / max(level, 1e-6)
            self.fraction = min(1.0, self.fraction * min(gain, cfg.growth_limit))

    def on_node_crash(self, now):
        super().on_node_crash(now)
        self.fraction = 1.0


class SignalControl(OccupancyControl):
    """Explicit 503 + Retry-After feedback between neighbors.

    Locally this is the occupancy controller (every local rejection is a
    real 503 with Retry-After).  On top, the proxy watches 503s passing
    upstream *through* it and sheds a per-next-hop fraction of new calls
    before they ever leave the building, so excess traffic dies one hop
    earlier.  The shed tracks the *observed* downstream reject ratio
    (503s seen over calls forwarded that period, EMA-smoothed) and
    decays geometrically once the 503s stop -- a proportional controller
    rather than a fixed-step one, which keeps it out of the flood/starve
    limit cycle a hard expiry cliff would cause.
    """

    kind = "signal"

    #: Shed fractions below this are dropped entirely.
    SHED_FLOOR = 0.02

    def __init__(self, config: ControlConfig):
        super().__init__(config)
        self._remote: Dict[str, float] = {}     # next hop -> shed fraction
        self._hop_seen: Dict[str, int] = {}     # pacing denominator
        self._hop_admitted: Dict[str, int] = {}
        self._hop_sent: Dict[str, int] = {}     # admitted toward hop
        self._hop_503: Dict[str, int] = {}      # 503s seen from hop

    def _admit(self, src, ds_key, call_id, now) -> bool:
        if ds_key is not None:
            shed = self._remote.get(ds_key, 0.0)
            if shed > 0.0:
                seen = self._hop_seen.get(ds_key, 0) + 1
                self._hop_seen[ds_key] = seen
                admitted = self._hop_admitted.get(ds_key, 0)
                if admitted + 1 > (1.0 - shed) * seen + 1e-9:
                    return False
                self._hop_admitted[ds_key] = admitted + 1
        ok = super()._admit(src, ds_key, call_id, now)
        if ok and ds_key is not None:
            self._hop_sent[ds_key] = self._hop_sent.get(ds_key, 0) + 1
        return ok

    def on_503(self, origin, retry_after, now):
        # The Retry-After marks this as an overload rejection; the shed
        # update itself happens at the period boundary in _decide.
        self._hop_503[origin] = self._hop_503.get(origin, 0) + 1

    def _decide(self, now, utilization, queue_len, msg_rate):
        cfg = self.config
        for hop in sorted(set(self._remote) | set(self._hop_503)):
            rejects = self._hop_503.get(hop, 0)
            sent = self._hop_sent.get(hop, 0)
            old = self._remote.get(hop, 0.0)
            # signal_step is the EMA weight of the newest observed
            # reject ratio; its complement is also the per-period decay
            # factor once the 503s stop.
            if rejects:
                ratio = min(1.0, rejects / float(max(sent, rejects)))
                shed = (1.0 - cfg.signal_step) * old + cfg.signal_step * ratio
            else:
                shed = (1.0 - cfg.signal_step) * old
            shed = min(cfg.signal_max_shed, shed)
            if shed >= self.SHED_FLOOR:
                self._remote[hop] = shed
            else:
                self._remote.pop(hop, None)
        self._hop_seen.clear()
        self._hop_admitted.clear()
        self._hop_sent.clear()
        self._hop_503.clear()
        self._update_fraction(utilization)
        remote = {hop: shed for hop, shed in sorted(self._remote.items())}
        return {"admitted_rate": None, "window": None,
                "fraction": self.fraction, "remote_shed": remote}

    def on_node_crash(self, now):
        super().on_node_crash(now)
        self._remote.clear()
        self._hop_seen.clear()
        self._hop_admitted.clear()
        self._hop_sent.clear()
        self._hop_503.clear()


_POLICY_CLASSES = {
    "rate": RateControl,
    "window": WindowControl,
    "occupancy": OccupancyControl,
    "signal": SignalControl,
}
