"""Complete simulations of the paper's evaluation topologies.

Every builder returns a ready-to-run :class:`Scenario`:

- :func:`single_proxy` -- section 3's profiling/saturation setups,
- :func:`two_series` / :func:`n_series` -- Figures 5/6 and the
  three-in-series result,
- :func:`internal_external` -- Figure 7's two-flow mix,
- :func:`parallel_fork` -- Figure 8's load balancer,
- :func:`register_churn` -- subscriber REGISTER refresh churn (with a
  digest-auth storm variant),
- :func:`b2bua_chain` -- a dialog-bridging B2BUA between two proxy
  segments,
- :func:`flash_crowd` -- time-varying load (step / spike / diurnal)
  with optional restart avalanches,
- :func:`heavy_tail` -- lognormal/Pareto call durations and mid-call
  re-INVITEs.

All but ``single_proxy``, ``register_churn`` and ``b2bua_chain`` are a
topology factory plus :func:`from_topology`, so ``Scenario.topology`` is
the very graph a run simulates: its LP input.

Rates are specified in *paper-equivalent* calls/second; the scenario
divides them by ``config.scale`` internally (the cost model multiplies
costs by the same factor), so results read back in paper units.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.costmodel import CostModel, PAPER_T_SF, PAPER_T_SL
from repro.core.servartuka import ServartukaConfig, ServartukaPolicy
from repro.core.static_policy import (
    StatePolicy,
    stateful_policy,
    stateless_policy,
)
from repro.core.topology import Topology, priced_topology
from repro.servers.location import LocationService
from repro.servers.proxy import (
    DELIVER_ACTION,
    ProxyConfig,
    ProxyServer,
    RouteTable,
)
from repro.servers.uac import CallGenerator, CallGeneratorConfig
from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.digest import CredentialStore
from repro.sip.message import check_engine, set_engine_mode
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy

# What only some scenarios use -- observability, overload control,
# registrars, B2BUAs, the topology generator, faults, traces -- is
# imported where it is used, so a process loads what it
# runs (docs/ARCHITECTURE.md, "Import layering").
if TYPE_CHECKING:
    from repro.obs.observe import Observer
    from repro.servers.b2bua import B2buaServer
    from repro.servers.registrar_client import RegistrarClient

# Shared digest-auth material for scenarios with authentication: the
# clients pre-authorize (SIPp-style) against this realm/nonce.
AUTH_REALM = "repro.example.com"
AUTH_NONCE = "repro-nonce"
AUTH_USER = "loadgen"
AUTH_PASSWORD = "sipp-secret"


class UnsupportedCombination(ValueError):
    """An engine refuses a feature; the message is the one-line reason
    (docs/ARCHITECTURE.md, "Engine × feature contract")."""


def _refuse_split(config: "ScenarioConfig", feature: str) -> None:
    """Refuse a feature the shard runtime cannot split across shards."""
    if (config.shards or 1) > 1:
        raise UnsupportedCombination(
            f"engine='sharded' with shards>1 does not support {feature}; "
            "run with shards=1 or engine='turbo'"
        )


class ScenarioConfig:
    """Shared knobs for all scenario builders.

    ``scale`` divides every capacity: scale=10 turns the paper's
    ~10,000 cps regime into ~1,000 cps so sweeps run an order of
    magnitude faster with identical economics (see DESIGN.md).
    """

    def __init__(
        self,
        scale: float = 10.0,
        seed: int = 1,
        noise_sigma: float = 0.30,
        arrival: str = "poisson",
        monitor_period: float = 1.0,
        via_overhead: float = 0.20,
        reject_queue_delay: Optional[float] = None,
        max_queue_delay: Optional[float] = None,
        t_sf: float = PAPER_T_SF,
        t_sl: float = PAPER_T_SL,
        hold_time: float = 0.0,
        timers: Optional[TimerPolicy] = None,
        servartuka: Optional[ServartukaConfig] = None,
        engine: str = "turbo",
        observe=None,
        control=None,
        shards: Optional[int] = None,
    ):
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"scale must be finite and positive: {scale}")
        if not (monitor_period > 0 and math.isfinite(monitor_period)):
            raise ValueError("monitor_period must be finite and positive: "
                             f"{monitor_period}")
        for name, value in (("reject_queue_delay", reject_queue_delay),
                            ("max_queue_delay", max_queue_delay),
                            ("hold_time", hold_time)):
            if value is not None and not value >= 0:  # NaN too
                raise ValueError(f"{name} must be >= 0: {value}")
        check_engine(engine)
        if shards is not None and engine != "sharded":
            raise UnsupportedCombination(
                "shards= only applies to engine='sharded' "
                f"(got engine={engine!r})"
            )
        self.scale = scale
        self.seed = seed
        self.noise_sigma = noise_sigma
        self.arrival = arrival
        self.monitor_period = monitor_period
        self.via_overhead = via_overhead
        self.t_sf = t_sf
        self.t_sl = t_sl
        self.hold_time = hold_time
        self.timers = timers or DEFAULT_TIMERS
        # Overload shedding must engage *before* the client retransmission
        # timer (T1), otherwise a backlog turns into a retransmit storm
        # before any 500s shed the excess.  Defaults derive from T1
        # (0.3 s and 1.0 s for the standard 0.5 s T1).
        if reject_queue_delay is None:
            reject_queue_delay = 0.6 * self.timers.t1
        if max_queue_delay is None:
            max_queue_delay = 2.0 * self.timers.t1
        self.reject_queue_delay = reject_queue_delay
        self.max_queue_delay = max_queue_delay
        self.servartuka = servartuka or ServartukaConfig(period=monitor_period)
        #: ``"reference"`` runs the plain heap loop and wire-faithful
        #: message passing (every hop serializes with ``to_wire`` and
        #: re-parses, exactly what a real SIP stack pays); ``"turbo"``
        #: (the default) runs the timer-wheel loop, copy-on-write
        #: messages, deferred CPU accounting and lean metrics.  The two
        #: are required to produce
        #: bit-identical results (enforced by
        #: tests/engine/test_differential.py) -- only wall-clock differs.
        #: ``"sharded"`` partitions one scenario's node set across
        #: ``shards`` turbo event loops synchronized by conservative
        #: time windows (see repro.sim.shard); bit-identical to serial
        #: turbo on loss/jitter-free fabrics.
        self.engine = engine
        #: Shard count for engine="sharded" (defaults to 1 there; must
        #: stay None for every other engine so pre-sharding cache keys
        #: are untouched).
        self.shards = (
            (1 if shards is None else int(shards))
            if engine == "sharded" else None
        )
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        #: Observability: None (default, fully off), True/"all", a
        #: comma list ("cpu,telemetry,spans"), or an ObserveConfig.
        #: Off changes no code path beyond per-site ``is not None``
        #: tests; on changes no *metric* either (recorders are pure
        #: sinks) -- see repro.obs.
        self.observe = None
        if observe is not None:
            from repro.obs.observe import ObserveConfig

            self.observe = ObserveConfig.coerce(observe)
            if self.observe is not None:
                _refuse_split(self, "observe= instrumentation")
        #: Overload control: None (default, fully off), a policy name
        #: ("rate", "window", "occupancy", "signal") or a ControlConfig.
        #: Every proxy gets its own fresh policy instance -- see
        #: repro.core.control.
        self.control = None
        if control is not None:
            from repro.core.control import ControlConfig

            self.control = ControlConfig.coerce(control)
            if self.control is not None:
                _refuse_split(self, "overload control snapshots")

    def to_payload(self) -> Dict[str, object]:
        """Every knob as a JSON-able dict (the parallel executor's spec
        format; participates in the run-cache hash, so any change here
        correctly invalidates cached runs).

        The ``control`` key is present only when overload control is
        on: a dormant controller must leave the payload -- and with it
        every pre-existing run-cache key -- byte-identical."""
        payload = {
            "scale": self.scale,
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "arrival": self.arrival,
            "monitor_period": self.monitor_period,
            "via_overhead": self.via_overhead,
            "reject_queue_delay": self.reject_queue_delay,
            "max_queue_delay": self.max_queue_delay,
            "t_sf": self.t_sf,
            "t_sl": self.t_sl,
            "hold_time": self.hold_time,
            "timers": {
                "t1": self.timers.t1,
                "t2": self.timers.t2,
                "t4": self.timers.t4,
            },
            "servartuka": {
                "period": self.servartuka.period,
                "headroom": self.servartuka.headroom,
                "clear_utilization": self.servartuka.clear_utilization,
                "clear_periods": self.servartuka.clear_periods,
                "dialog_state": self.servartuka.dialog_state,
            },
            "engine": self.engine,
            # Derived, not a knob; still emitted so cache keys stay
            # byte-identical to builds where it was one.
            "lean_metrics": self.optimized,
            "observe": (
                self.observe.to_payload() if self.observe is not None else None
            ),
        }
        if self.control is not None:
            payload["control"] = self.control.to_payload()
        # Same contract for the sharded engine: the key exists only when
        # engine == "sharded", so every pre-sharding cache key stays
        # byte-identical (pinned by tests/harness/test_sharded_cache.py).
        if self.engine == "sharded":
            payload["shards"] = self.shards
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ScenarioConfig":
        """Rebuild from :meth:`to_payload` output -- or any subset of it.

        Partial dicts (e.g. the ``[config]`` section of a scenario spec
        file) fill the missing knobs with constructor defaults, so
        ``from_payload(cfg.to_payload()) == cfg`` and
        ``from_payload({"seed": 3})`` both work.
        """
        kwargs = dict(payload)
        lean_metrics = kwargs.pop("lean_metrics", None)
        if isinstance(kwargs.get("timers"), dict):
            kwargs["timers"] = TimerPolicy(**kwargs["timers"])
        if isinstance(kwargs.get("servartuka"), dict):
            servartuka = dict(kwargs["servartuka"])
            servartuka["clear_periods"] = int(servartuka["clear_periods"])
            kwargs["servartuka"] = ServartukaConfig(**servartuka)
        if "seed" in kwargs:
            kwargs["seed"] = int(kwargs["seed"])
        if kwargs.get("shards") is not None:
            kwargs["shards"] = int(kwargs["shards"])
        config = cls(**kwargs)
        if lean_metrics is not None and lean_metrics != config.optimized:
            raise ValueError(
                f"lean_metrics={lean_metrics!r} contradicts "
                f"engine={config.engine!r}: it is derived from the engine "
                "(off for 'reference', on otherwise) and cannot be set"
            )
        return config

    @classmethod
    def coerce(cls, value) -> "ScenarioConfig":
        """Accept the forms ``config=`` takes everywhere (the
        :meth:`repro.core.control.ControlConfig.coerce` idiom):

        - ``None`` -- defaults,
        - a :class:`ScenarioConfig` -- passed through,
        - a ``str`` -- shorthand for ``ScenarioConfig(engine=value)``,
        - a ``dict`` -- :meth:`from_payload` (partial dicts fill with
          defaults).
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(engine=value)
        if isinstance(value, dict):
            return cls.from_payload(value)
        raise TypeError(
            "config must be None, a ScenarioConfig, an engine name or a "
            f"payload dict, not {type(value).__name__}"
        )

    def replace(self, **given) -> "ScenarioConfig":
        """This config with the given knobs changed; a ``None`` value
        means "not given" and keeps the knob as it is.  A shard count
        not given goes with an engine that has none.

        Every attribute ``__init__`` sets is one of its parameters, so
        the instance's own ``vars()`` are the arguments that rebuild it.
        """
        given = {name: value for name, value in given.items()
                 if value is not None}
        if not given:
            return self
        kwargs = dict(vars(self), **given)
        if kwargs["engine"] != "sharded" and "shards" not in given:
            kwargs["shards"] = None
        return ScenarioConfig(**kwargs)

    @property
    def optimized(self) -> bool:
        """Everything but the wire-faithful oracle: the timer-wheel loop
        and lean metrics key off this."""
        return self.engine != "reference"

    def make_event_loop(self) -> EventLoop:
        if self.optimized:
            from repro.sim.timers_wheel import WheelEventLoop

            # Level-0 buckets sized to T1 so retransmission timers (T1,
            # 2*T1, ... 64*T1) spread across the hierarchy instead of
            # the heap.
            return WheelEventLoop(bucket_width=max(self.timers.t1, 1e-3))
        return EventLoop()

    def make_cost_model(self) -> CostModel:
        return CostModel(
            t_sf=self.t_sf,
            t_sl=self.t_sl,
            scale=self.scale,
            via_overhead=self.via_overhead,
        )

    def make_policy(self, spec: str) -> StatePolicy:
        """Build a policy from a spec string.

        ``"servartuka"``, ``"stateless"``, ``"stateful"`` or
        ``"dialog"``.
        """
        if spec == "servartuka":
            cfg = self.servartuka
            return ServartukaPolicy(
                ServartukaConfig(
                    period=cfg.period,
                    headroom=cfg.headroom,
                    clear_utilization=cfg.clear_utilization,
                    clear_periods=cfg.clear_periods,
                    dialog_state=cfg.dialog_state,
                )
            )
        if spec == "stateless":
            return stateless_policy()
        if spec == "stateful":
            return stateful_policy()
        if spec == "dialog":
            return stateful_policy(dialog=True)
        raise ValueError(f"unknown policy spec {spec!r}")


class Scenario:
    """A wired-up simulation: loop, network, nodes and generators."""

    def __init__(self, name: str, config: ScenarioConfig):
        self.name = name
        self.config = config
        # Engine toggles are process-global (parser caches, CPU
        # accounting, metrics allocation mode); constructing a scenario
        # flips them in BOTH directions so interleaved reference/turbo
        # runs stay honest.
        set_engine_mode(config.engine)
        self.loop = config.make_event_loop()
        self.rng = RngStream(config.seed, name)
        self.network = Network(self.loop, self.rng.spawn("net"))
        self.cost_model = config.make_cost_model()
        self.location = LocationService()
        self.proxies: Dict[str, ProxyServer] = {}
        self.generators: List[CallGenerator] = []
        self.servers: List[AnsweringServer] = []
        self.registrars: List[RegistrarClient] = []
        self.b2buas: List[B2buaServer] = []
        self.trace = None
        self.faults = None
        #: Flow paths (node-name sequences, UAC -> ... -> UAS) appended
        #: by the builders.  The sharded engine's partitioner walks them
        #: in order to linearize the node space so each call's signaling
        #: path lands in as few shards as topology allows; scenarios
        #: without hints fall back to network registration order.
        self.partition_hints: List[List[str]] = []
        #: The :class:`~repro.core.topology.Topology` the scenario is
        #: wired from (:func:`from_topology`), priced as the simulator
        #: charges it: the LP input.  None for the hand-wired builders.
        self.topology = None
        self.observer: Optional[Observer] = None
        if config.observe is not None:
            from repro.obs.observe import Observer

            self.observer = Observer(config.observe)
            if config.observe.spans:
                self.observer.trace = self.enable_trace(
                    config.observe.trace_max_entries,
                    config.observe.trace_sample_every,
                )

    def install_faults(self, schedule):
        """Bind a :class:`repro.sim.faults.FaultSchedule` to this run.

        Times in the schedule are relative to the moment of
        installation (normally scenario construction, i.e. t=0).
        Returns the :class:`repro.sim.faults.FaultInjector`.
        """
        _refuse_split(self.config, "fault schedules (partitions and "
                      "crashes are global state)")
        injector = schedule.apply(self.loop, self.network)
        self.faults = injector
        return injector

    def enable_trace(self, max_entries: int = 100_000,
                     sample_every: int = 1):
        """Record packets for ladder diagrams / flow inspection.

        Returns the :class:`repro.sim.trace.MessageTrace`.  Costs one
        object per recorded message; ``sample_every=N`` keeps only every
        N-th packet (zero-allocation mode for long runs);
        leave off entirely for capacity sweeps.
        """
        from repro.sim.trace import MessageTrace

        if self.trace is None:
            self.trace = MessageTrace(self.network, max_entries,
                                      sample_every=sample_every)
        return self.trace

    # ------------------------------------------------------------------
    # Construction helpers used by the builders
    # ------------------------------------------------------------------
    def add_proxy(
        self,
        name: str,
        route_table: RouteTable,
        policy_spec: str,
        auth_enabled: bool = False,
        distribute_auth: bool = False,
        cost_model: Optional[CostModel] = None,
    ) -> ProxyServer:
        credentials = None
        auth_policy = None
        if auth_enabled:
            credentials = CredentialStore(AUTH_REALM)
            credentials.add_user(AUTH_USER, AUTH_PASSWORD)
            if distribute_auth:
                auth_policy = ServartukaPolicy(
                    ServartukaConfig(period=self.config.monitor_period),
                    resource="auth",
                )
        proxy = ProxyServer(
            name,
            self.loop,
            self.network,
            route_table=route_table,
            location=self.location,
            policy=self.config.make_policy(policy_spec),
            config=ProxyConfig(
                auth_enabled=auth_enabled,
                realm=AUTH_REALM,
                nonce=AUTH_NONCE,
                reject_queue_delay=self.config.reject_queue_delay,
                monitor_period=self.config.monitor_period,
            ),
            credentials=credentials,
            auth_policy=auth_policy,
            # Heterogeneous scenarios (generated clusters) hand each
            # proxy its own calibrated model; homogeneous ones share.
            cost_model=cost_model if cost_model is not None else self.cost_model,
            timers=self.config.timers,
            rng=self.rng,
            noise_sigma=self.config.noise_sigma,
            max_queue_delay=self.config.max_queue_delay,
            control=(
                self.config.control.build()
                if self.config.control is not None else None
            ),
        )
        self.proxies[name] = proxy
        if self.observer is not None:
            self._observe_proxy(proxy)
        return proxy

    def _observe_proxy(self, proxy: ProxyServer) -> None:
        """Attach the run's recorders to one proxy (observe= enabled)."""
        profiler = self.observer.profiler_for(proxy.name)
        if profiler is not None:
            proxy.cpu.profiler = profiler
        if hasattr(proxy.policy, "telemetry"):
            proxy.policy.telemetry = self.observer.telemetry_for(
                proxy.name, getattr(proxy.policy, "resource", "state")
            )
        if proxy.auth_policy is not None and hasattr(proxy.auth_policy,
                                                     "telemetry"):
            proxy.auth_policy.telemetry = self.observer.telemetry_for(
                proxy.name, "auth"
            )
        if proxy.control is not None:
            proxy.control.telemetry = self.observer.control_for(proxy.name)

    def add_uas(self, name: str, aors: Sequence[str]) -> AnsweringServer:
        server = AnsweringServer(
            name, self.loop, self.network, timers=self.config.timers, rng=self.rng
        )
        for aor in aors:
            self.location.register(aor, name)
        self.servers.append(server)
        if self.observer is not None:
            profiler = self.observer.profiler_for(name)
            if profiler is not None:
                server.timer_observer = profiler.count
        return server

    def add_uac(
        self,
        name: str,
        rate_paper_cps: float,
        first_hop: str,
        destinations: Sequence[str],
        with_auth: bool = False,
        hold_time: Optional[float] = None,
        hold_dist: str = "fixed",
        hold_sigma: float = 0.6,
        hold_alpha: float = 2.5,
        reinvite_after: Optional[float] = None,
    ) -> CallGenerator:
        generator = CallGenerator(
            name,
            self.loop,
            self.network,
            CallGeneratorConfig(
                rate=rate_paper_cps / self.config.scale,
                first_hop=first_hop,
                destinations=destinations,
                arrival=self.config.arrival,
                hold_time=(
                    self.config.hold_time if hold_time is None else hold_time
                ),
                hold_dist=hold_dist,
                hold_sigma=hold_sigma,
                hold_alpha=hold_alpha,
                reinvite_after=reinvite_after,
                auth_username=AUTH_USER if with_auth else None,
                auth_password=AUTH_PASSWORD if with_auth else None,
                auth_realm=AUTH_REALM if with_auth else None,
                auth_nonce=AUTH_NONCE,
            ),
            timers=self.config.timers,
            rng=self.rng,
        )
        self.generators.append(generator)
        if self.observer is not None:
            profiler = self.observer.profiler_for(name)
            if profiler is not None:
                generator.client.timer_observer = profiler.count
        return generator

    def add_registrar(
        self,
        name: str,
        registrar: str,
        aors: Sequence[str],
        refresh_interval: float,
        expires: float,
        contact_node: Optional[str] = None,
        with_auth: bool = False,
    ) -> RegistrarClient:
        """A population of devices refreshing their bindings via REGISTER."""
        from repro.servers.registrar_client import RegistrarClient

        client = RegistrarClient(
            name,
            self.loop,
            self.network,
            registrar=registrar,
            aors=aors,
            refresh_interval=refresh_interval,
            expires=expires,
            timers=self.config.timers,
            contact_node=contact_node,
            auth_username=AUTH_USER if with_auth else None,
            auth_password=AUTH_PASSWORD if with_auth else "",
            auth_realm=AUTH_REALM,
            auth_nonce=AUTH_NONCE,
            rng=self.rng,
        )
        self.registrars.append(client)
        return client

    def add_b2bua(self, name: str, first_hop: str,
                  dest_domain: str) -> B2buaServer:
        """A dialog-bridging B2BUA between two proxy segments."""
        from repro.servers.b2bua import B2buaServer

        b2bua = B2buaServer(
            name,
            self.loop,
            self.network,
            first_hop=first_hop,
            dest_domain=dest_domain,
            timers=self.config.timers,
            rng=self.rng,
        )
        self.b2buas.append(b2bua)
        return b2bua

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self, until: Optional[float] = None) -> None:
        """Start the load.  ``until`` is the last deadline the driver
        will pass to ``loop.run_until``: the loop stores no event due
        after it (``EventLoop.close_at``)."""
        # Every in-place driver passes here; the shard runtime never
        # does (each replica starts the nodes it owns itself).
        if (self.config.shards or 1) > 1:
            raise UnsupportedCombination(
                "a live Scenario cannot run sharded in place; use "
                "repro.api.run_scenario(..., engine='sharded', shards=N) "
                "or run_specs(), or set shards=1"
            )
        if until is not None:
            self.loop.close_at(until)
        # Registrars first: their initial REGISTERs land before the
        # first call of a uniform-arrival generator (also scheduled at
        # t=0), keeping event order deterministic.
        for registrar in self.registrars:
            registrar.start()
        for generator in self.generators:
            generator.start()

    def stop_load(self) -> None:
        for registrar in self.registrars:
            registrar.stop()
        for generator in self.generators:
            generator.stop()

    @property
    def offered_paper_cps(self) -> float:
        return sum(g.config.rate for g in self.generators) * self.config.scale

    def set_total_rate(self, rate_paper_cps: float) -> None:
        """Rescale all generators preserving their relative shares."""
        current = sum(g.config.rate for g in self.generators)
        if current <= 0:
            raise ValueError("no generators to scale")
        factor = (rate_paper_cps / self.config.scale) / current
        for generator in self.generators:
            generator.set_rate(generator.config.rate * factor)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Scenario {self.name} proxies={list(self.proxies)}>"


# ----------------------------------------------------------------------
# Wiring: one rule for every builder described by a topology
# ----------------------------------------------------------------------
def _placement(
    policy: str, names: Sequence[str], stateful: Sequence[str]
) -> Dict[str, str]:
    """Per-node policy specs: ``"static"`` makes every node stateful
    (the paper's case (i)), ``"static-one"`` the ``stateful`` nodes only
    (case (ii)), and any other policy runs on every node."""
    if policy == "static":
        return {name: "stateful" for name in names}
    if policy == "static-one":
        for node in stateful:
            if node not in names:
                raise ValueError(f"{node!r} not in {list(names)}")
        return {
            name: ("stateful" if name in stateful else "stateless")
            for name in names
        }
    return {name: policy for name in names}


def _check_placement(argument: str, given: bool, policy: str,
                     needed: str) -> None:
    """A placement argument the policy would ignore is an error."""
    if given and policy != needed:
        raise ValueError(
            f"{argument}= needs policy={needed!r} (got policy={policy!r})"
        )


def from_topology(
    scenario: Scenario,
    topology: Topology,
    rate: float,
    policy: str,
    endpoints: Dict[str, Tuple[str, str, str]],
    stateful: Optional[Sequence[str]] = None,
    auth: str = "none",
    fallbacks: Optional[Dict[str, str]] = None,
    cost_models: Optional[Dict[str, CostModel]] = None,
    **uac_kwargs,
) -> Scenario:
    """Wire ``topology``'s flows into a fresh ``scenario`` and keep the
    topology as ``scenario.topology``: the one rule every builder
    described by a topology follows.

    ``endpoints[flow] = (uac, uas, aor)``; the flow's domain is the
    AOR's host.  Every hop on the flow's path routes that domain to the
    next hop and the exit delivers it.  One UAS per ``uas`` name (one
    per exit node) in order of first appearance; one UAC per flow at
    ``rate`` x its normalized share, none for a share of 0.  ``policy``
    places state by :func:`_placement`, ``stateful`` defaulting to the
    flow exits; ``auth`` is ``"none"``, ``"entry"`` (the flow entries
    authenticate) or ``"distributed"`` (every node can, a SERvartuka
    policy with resource="auth" decides where).  ``fallbacks[flow] =
    node`` makes ``node`` a fallback at the hop before the flow's exit
    and has it deliver the flow's domain too; ``cost_models`` gives
    nodes their own model (the rest share ``scenario.cost_model``);
    ``uac_kwargs`` go to every UAC.
    """
    if auth not in ("none", "entry", "distributed"):
        raise ValueError(f"unknown auth placement {auth!r}")
    names = topology.node_names
    specs = _placement(policy, names,
                       topology.exits if stateful is None else stateful)
    flows = {flow.name: flow for flow in topology.flows}
    domains = {name: aor.rsplit("@", 1)[1]
               for name, (_uac, _uas, aor) in endpoints.items()}
    routes = {name: RouteTable() for name in names}
    uas_aors: Dict[str, List[str]] = {}
    for flow in topology.flows:
        _uac, uas, aor = endpoints[flow.name]
        for src, dst in zip(flow.path, flow.path[1:]):
            routes[src].add(domains[flow.name], dst)
        routes[flow.exit].add(domains[flow.name], DELIVER_ACTION)
        uas_aors.setdefault(uas, []).append(aor)
    for flow_name, node in (fallbacks or {}).items():
        routes[flows[flow_name].path[-2]].add_fallback(domains[flow_name], node)
        routes[node].add(domains[flow_name], DELIVER_ACTION)

    cost_models = cost_models or {}
    for name in names:
        scenario.add_proxy(
            name, routes[name], specs[name],
            auth_enabled=auth == "distributed"
            or (auth == "entry" and name in topology.entries),
            distribute_auth=auth == "distributed",
            cost_model=cost_models.get(name),
        )
    for uas, aors in uas_aors.items():
        scenario.add_uas(uas, aors)
    shares = topology.normalized_flow_shares()
    for flow in topology.flows:
        uac, uas, aor = endpoints[flow.name]
        if shares[flow.name] > 0:
            scenario.add_uac(uac, rate * shares[flow.name], flow.entry, [aor],
                             with_auth=auth != "none", **uac_kwargs)
            scenario.partition_hints.append([uac, *flow.path, uas])
    scenario.topology = topology
    return scenario


def _priced(names: Sequence[str],
            flows: Sequence[Tuple[str, Sequence[str], float]],
            cost_model: CostModel) -> Topology:
    """:func:`~repro.core.topology.priced_topology` in paper cps."""
    return priced_topology(names, flows, cost_model,
                           dict.fromkeys(names, cost_model.scale))


def chain_topology(n: int, cost_model: CostModel) -> Topology:
    """P1 -> ... -> PN carrying one flow, ``main``."""
    if n < 1:
        raise ValueError("need at least one proxy")
    names = [f"P{i + 1}" for i in range(n)]
    return _priced(names, [("main", names, 1.0)], cost_model)


def mix_topology(external_fraction: float, cost_model: CostModel) -> Topology:
    """Figure 7's S1 -> S2: the ``external`` flow crosses both, the
    ``internal`` one ends at S1.  Both flows stay at fractions 0 and 1."""
    if not 0.0 <= external_fraction <= 1.0:
        raise ValueError("external_fraction must be within [0, 1]")
    return _priced(["S1", "S2"],
                   [("external", ["S1", "S2"], external_fraction),
                    ("internal", ["S1"], 1.0 - external_fraction)],
                   cost_model)


def fork_topology(upper_share: float, cost_model: CostModel) -> Topology:
    """Figure 8's front F forking to U (flow ``upper``) and L (``lower``)."""
    if not 0.0 < upper_share < 1.0:
        raise ValueError("upper_share must be strictly inside (0, 1)")
    return _priced(["F", "U", "L"],
                   [("upper", ["F", "U"], upper_share),
                    ("lower", ["F", "L"], 1.0 - upper_share)],
                   cost_model)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
#: Figure 3 mode -> (policy spec, lookup?, auth?) for a single proxy.
SINGLE_PROXY_MODES = {
    "no_lookup": ("stateless", False, False),
    "stateless": ("stateless", True, False),
    "transaction_stateful": ("stateful", True, False),
    "dialog_stateful": ("dialog", True, False),
    "authentication": ("dialog", True, True),
}


def single_proxy(
    rate: float,
    mode: str = "transaction_stateful",
    config=None,
) -> Scenario:
    """Section 3's setup: SIPp clients -> one proxy -> SIPp servers.

    ``mode`` is one of the paper's five functionality modes
    (:data:`SINGLE_PROXY_MODES`).  In ``no_lookup`` mode the request
    URI already identifies the end point, so the proxy routes straight
    to the UAS node without touching the location service.
    """
    if mode not in SINGLE_PROXY_MODES:
        raise ValueError(f"unknown mode {mode!r}; one of {sorted(SINGLE_PROXY_MODES)}")
    policy_spec, lookup, auth = SINGLE_PROXY_MODES[mode]
    config = ScenarioConfig.coerce(config)
    scenario = Scenario(f"single_proxy[{mode}]", config)
    aor = "sip:burdell@edge.example.net"
    route = RouteTable()
    if lookup:
        route.add("edge.example.net", DELIVER_ACTION)
    else:
        route.add("edge.example.net", "uas1")
    scenario.add_proxy("P1", route, policy_spec, auth_enabled=auth)
    scenario.add_uas("uas1", [aor])
    scenario.add_uac("uac1", rate, "P1", [aor], with_auth=auth)
    scenario.partition_hints.append(["uac1", "P1", "uas1"])
    return scenario


def _series_chain(
    scenario_name: str,
    n: int,
    rate: float,
    policy: str,
    static_stateful: Optional[str],
    config,
    auth: str = "none",
    **uac_kwargs,
) -> Scenario:
    """UAC -> P1 -> ... -> PN -> UAS, for every builder that is a chain;
    ``uac_kwargs`` go to the call generator."""
    _check_placement("static_stateful", static_stateful is not None, policy,
                     "static-one")
    scenario = Scenario(scenario_name, ScenarioConfig.coerce(config))
    return from_topology(
        scenario, chain_topology(n, scenario.cost_model), rate, policy,
        {"main": ("uac1", "uas1", "sip:burdell@edge.example.net")},
        stateful=None if static_stateful is None else [static_stateful],
        auth=auth, **uac_kwargs,
    )


def n_series(
    n: int,
    rate: float,
    policy: str = "servartuka",
    static_stateful: Optional[str] = None,
    config=None,
    auth: str = "none",
) -> Scenario:
    """N proxies in series: UAC -> P1 -> ... -> PN -> UAS.

    ``policy`` applies to every proxy, with two static baselines:

    - ``"static"`` -- every proxy transaction-stateful, the paper's
      case (i);
    - ``"static-one"`` -- exactly one node stateful
      (``static_stateful``, default the exit node PN), the paper's
      case (ii).

    ``auth`` selects how the authentication function is placed (the
    paper's section 6.2 extension):

    - ``"none"`` -- no authentication,
    - ``"entry"`` -- the entry proxy P1 authenticates every call (the
      conventional static placement),
    - ``"distributed"`` -- every proxy can authenticate and a
      SERvartuka policy (resource="auth") decides where, per call.
    """
    return _series_chain(f"{n}_series", n, rate, policy, static_stateful,
                         config, auth)


def two_series(
    rate: float,
    policy: str = "servartuka",
    static_stateful: Optional[str] = None,
    config=None,
    auth: str = "none",
) -> Scenario:
    """The paper's canonical two-servers-in-series configuration."""
    return n_series(2, rate, policy, static_stateful, config, auth)


def internal_external(
    rate: float,
    external_fraction: float,
    policy: str = "servartuka",
    static_stateful: Optional[str] = None,
    config=None,
) -> Scenario:
    """Figure 7: external calls traverse S1 -> S2, internal ones stop at S1.

    ``external_fraction`` in [0, 1] splits the total offered load; the
    paper varies it from 0 to 1 in steps of 0.1.  Under ``"static-one"``
    the stateful node is ``static_stateful``, default S1.
    """
    _check_placement("static_stateful", static_stateful is not None, policy,
                     "static-one")
    scenario = Scenario("internal_external", ScenarioConfig.coerce(config))
    return from_topology(
        scenario, mix_topology(external_fraction, scenario.cost_model),
        rate, policy,
        {"external": ("uac_ext", "uas_ext", "sip:hal@far.example.net"),
         "internal": ("uac_int", "uas_int", "sip:burdell@near.example.net")},
        stateful=[static_stateful or "S1"],
    )


def parallel_fork(
    rate: float,
    policy: str = "servartuka",
    upper_share: float = 0.5,
    config=None,
    static_front_stateful: bool = False,
    failover: bool = False,
) -> Scenario:
    """Figure 8: a front proxy load-balances across two parallel paths.

    The conventional static assignment (``"static"``, the same as
    ``"static-one"``) keeps the front stateless and the two forks
    stateful; ``static_front_stateful=True`` inverts it (the
    non-homogeneous ablation in section 6.2).

    ``failover=True`` cross-wires the topology for fault injection: the
    front learns each fork as a fallback for the other's domain, and
    each fork can deliver *both* domains (the shared location service
    resolves either AOR).  When the failure detector reports a fork
    dead, the front reroutes its traffic to the survivor and a
    SERvartuka front recomputes ``myshare`` over the remaining path.
    """
    _check_placement("static_front_stateful", static_front_stateful, policy,
                     "static")
    scenario = Scenario("parallel_fork", ScenarioConfig.coerce(config))
    return from_topology(
        scenario, fork_topology(upper_share, scenario.cost_model), rate,
        "static-one" if policy == "static" else policy,
        {"upper": ("uac_u", "uas_u", "sip:u@upper.example.net"),
         "lower": ("uac_l", "uas_l", "sip:l@lower.example.net")},
        stateful=["F"] if static_front_stateful else None,
        fallbacks={"upper": "L", "lower": "U"} if failover else None,
    )


def generated(
    rate: float,
    family: str = "chain",
    size: int = 6,
    seed: int = 1,
    heterogeneity: float = 0.0,
    policy: str = "servartuka",
    config=None,
    **params,
) -> Scenario:
    """Run any :mod:`repro.core.topogen` topology as a live simulation.

    The topology is regenerated deterministically from
    ``(family, size, seed, heterogeneity, **params)`` -- the same
    JSON-able arguments :meth:`GeneratedTopology.spec` returns -- so
    specs built from this builder hash stably into the run cache and
    rebuild identically inside parallel workers.

    Wired by :func:`from_topology`: flow ``f`` calls
    ``sip:callee@f.gen.example.net`` from ``uac_f``, answered by
    ``uas_<exit>``.  Each proxy gets its *own* cost model at the
    topology's per-node ``(t_sf, t_sl)`` anchors, so heterogeneous
    speeds are real simulated economics, not just LP inputs.
    """
    from repro.core import topogen

    # **params belongs to the topology generator (its own ``seed`` is
    # the *topology* seed); config knobs come through config=.
    config = ScenarioConfig.coerce(config)
    # Anchor the generated capacities to this config's calibration so
    # the LP oracle and the simulator charge identical economics.
    unit_model = CostModel(
        t_sf=config.t_sf,
        t_sl=config.t_sl,
        scale=1.0,
        via_overhead=config.via_overhead,
    )
    gen = topogen.generate(
        family, size, seed=seed, heterogeneity=heterogeneity,
        cost_model=unit_model, **params,
    )
    return from_topology(
        Scenario(f"generated[{family}:{gen.n_proxies}]", config),
        gen.topology, rate, policy,
        {
            flow.name: (f"uac_{flow.name}", f"uas_{flow.exit}",
                        f"sip:callee@{flow.name}.gen.example.net")
            for flow in gen.topology.flows
        },
        cost_models={
            name: CostModel(
                t_sf=config.t_sf * node.speed,
                t_sl=config.t_sl * node.speed,
                scale=config.scale,
                via_overhead=config.via_overhead,
            )
            for name, node in gen.nodes.items()
        },
    )


def register_churn(
    rate: float,
    subscribers: int = 100,
    refresh_interval: float = 20.0,
    expires: Optional[float] = None,
    auth: str = "none",
    policy: str = "servartuka",
    config=None,
) -> Scenario:
    """A subscriber population churning REGISTERs behind call load.

    ``subscribers`` devices (paper-equivalent; divided by
    ``config.scale`` like call rates) each re-REGISTER every
    ``refresh_interval`` seconds, so the proxy carries a steady
    background REGISTER rate of ``subscribers / refresh_interval`` on
    top of ``rate`` calls/second.  Registration state shows up in the
    proxy's :class:`~repro.core.stateacct.StateAccount` and derates its
    SERvartuka thresholds (Algorithm 1/2 sees less headroom).

    ``auth="digest"`` turns on the digest-auth storm variant: the proxy
    challenges, and every REGISTER (and INVITE) carries a pre-computed
    ``Authorization`` header the registrar must verify -- the costliest
    per-message path in the paper's Figure 3.

    ``expires`` defaults to ``1.5 * refresh_interval`` so bindings
    never lapse between refreshes.
    """
    if auth not in ("none", "digest"):
        raise ValueError(f"unknown auth variant {auth!r}")
    if subscribers < 1:
        raise ValueError("need at least one subscriber")
    config = ScenarioConfig.coerce(config)
    scenario = Scenario(f"register_churn[{auth}]", config)
    digest = auth == "digest"
    domain = "edge.example.net"
    # Scale the population like call rates: the simulated REGISTER rate
    # is (subscribers / scale) / refresh_interval, matching the paper
    # rate divided by scale exactly as add_uac does for calls.
    population = max(4, int(round(subscribers / config.scale)))
    aors = [f"sip:sub{i}@{domain}" for i in range(population)]

    route = RouteTable().add(domain, DELIVER_ACTION)
    scenario.add_proxy("P1", route, policy, auth_enabled=digest)
    # Pre-register every AOR at the UAS so calls placed before a
    # device's first refresh cycle still resolve (no startup 404s).
    scenario.add_uas("uas1", aors)
    scenario.add_registrar(
        "reg1", "P1", aors,
        refresh_interval=refresh_interval,
        expires=expires if expires is not None else 1.5 * refresh_interval,
        contact_node="uas1",
        with_auth=digest,
    )
    scenario.add_uac("uac1", rate, "P1", aors, with_auth=digest)
    scenario.partition_hints.append(["uac1", "P1", "uas1"])
    scenario.partition_hints.append(["reg1", "P1"])
    return scenario


def b2bua_chain(
    rate: float,
    policy: str = "servartuka",
    static_stateful: Optional[str] = None,
    config=None,
) -> Scenario:
    """Two proxy segments bridged by a B2BUA: UAC -> P1 -> B -> P2 -> UAS.

    The B2BUA terminates every dialog on leg A and re-originates it on
    leg B, holding full call state on both legs for the call's entire
    lifetime -- the worst-case state profile the paper contrasts with
    transaction-stateful proxying.  The proxies on either side still
    run ``policy`` (SERvartuka by default), so the scenario shows how
    dynamic state placement behaves when an unavoidable stateful
    element sits mid-path.
    """
    config = ScenarioConfig.coerce(config)
    scenario = Scenario("b2bua_chain", config)
    b2b_domain = "b2b.example.net"
    east_domain = "east.example.net"
    callee = f"sip:callee@{east_domain}"

    _check_placement("static_stateful", static_stateful is not None, policy,
                     "static-one")
    specs = _placement(policy, ["P1", "P2"], [static_stateful or "P2"])

    route1 = RouteTable().add(b2b_domain, "B")
    route2 = RouteTable().add(east_domain, DELIVER_ACTION)
    scenario.add_proxy("P1", route1, specs["P1"])
    scenario.add_proxy("P2", route2, specs["P2"])
    scenario.add_b2bua("B", first_hop="P2", dest_domain=east_domain)
    scenario.add_uas("uas1", [callee])
    scenario.add_uac("uac1", rate, "P1", [f"sip:callee@{b2b_domain}"])
    scenario.partition_hints.append(["uac1", "P1", "B", "P2", "uas1"])
    return scenario


def flash_crowd(
    rate: float,
    shape: str = "spike",
    peak_factor: float = 3.0,
    period: float = 10.0,
    profile: Optional[Sequence[Sequence[float]]] = None,
    restart_node: Optional[str] = None,
    restart_at: Optional[float] = None,
    downtime: float = 1.0,
    n: int = 2,
    policy: str = "servartuka",
    config=None,
) -> Scenario:
    """An n-series chain under a time-varying (flash-crowd) load.

    ``rate`` is the *baseline* paper-equivalent calls/second; the
    profile multiplies it over time:

    - ``shape="step"`` -- baseline, then ``peak_factor`` x baseline,
      then baseline again, each held for ``period`` seconds;
    - ``shape="spike"`` -- like step but the peak lasts only
      ``period / 5`` (a televoting-style surge);
    - ``shape="diurnal"`` -- eight steps tracing one raised-cosine
      cycle between baseline and the peak.

    An explicit ``profile=[(duration, factor), ...]`` overrides
    ``shape``.  ``restart_node``/``restart_at`` optionally crash a
    proxy mid-crowd (auto-restarting after ``downtime`` seconds) to
    reproduce a restart avalanche: the recovering server re-enters at
    peak load with empty state tables.
    """
    from repro.sim.faults import FaultSchedule
    from repro.workloads.callgen import LoadProfile, LoadStep, apply_profile

    if peak_factor <= 0:
        raise ValueError("peak_factor must be positive")
    if period <= 0:
        raise ValueError("period must be positive")
    config = ScenarioConfig.coerce(config)
    _refuse_split(config, "load profiles (every replica would replay "
                  "the rate steps)")
    scenario = n_series(n, rate, policy=policy, config=config)
    scenario.name = f"flash_crowd[{shape if profile is None else 'custom'}]"

    if profile is not None:
        factors = [(float(d), float(f)) for d, f in profile]
    elif shape == "step":
        factors = [(period, 1.0), (period, peak_factor), (period, 1.0)]
    elif shape == "spike":
        factors = [(period, 1.0), (period / 5.0, peak_factor), (period, 1.0)]
    elif shape == "diurnal":
        factors = [
            (period, 1.0 + (peak_factor - 1.0)
             * (0.5 - 0.5 * math.cos(2.0 * math.pi * k / 8.0)))
            for k in range(8)
        ]
    else:
        raise ValueError(f"unknown shape {shape!r}")

    # Profile rates are post-scale absolute totals (apply_profile
    # preserves each generator's share of the total).
    base = rate / config.scale
    steps = [LoadStep(base * factor, duration) for duration, factor in factors]
    apply_profile(scenario.loop, scenario.generators, LoadProfile(steps))

    if restart_node is not None:
        if restart_at is None:
            raise ValueError("restart_node requires restart_at")
        if restart_node not in scenario.proxies:
            raise ValueError(
                f"{restart_node!r} not in {sorted(scenario.proxies)}"
            )
        schedule = FaultSchedule().crash(restart_at, restart_node,
                                         downtime=downtime)
        scenario.install_faults(schedule)
    return scenario


def heavy_tail(
    rate: float,
    hold_time: float = 5.0,
    hold_dist: str = "pareto",
    hold_sigma: float = 0.8,
    hold_alpha: float = 1.8,
    reinvite_after: Optional[float] = None,
    n: int = 2,
    policy: str = "servartuka",
    config=None,
) -> Scenario:
    """An n-series chain with heavy-tailed call durations.

    Real call-hold times are far from exponential; lognormal and Pareto
    fits dominate the measurement literature.  Long calls pin dialog
    state for their entire duration, so heavy tails stress exactly the
    state budget SERvartuka reallocates:

    - ``hold_dist="pareto"`` -- Pareto with tail index ``hold_alpha``
      and mean ``hold_time`` (``alpha`` close to 1 means rare but
      enormous calls);
    - ``hold_dist="lognormal"`` -- lognormal with sigma ``hold_sigma``
      and mean ``hold_time``;
    - ``hold_dist="fixed"`` -- degenerate baseline.

    ``reinvite_after`` additionally sends a mid-call re-INVITE (session
    refresh / hold-retrieve) that long, that many seconds into every
    call that lasts longer -- in-dialog traffic the stateless fast path
    cannot absorb.
    """
    return _series_chain(
        f"heavy_tail[{hold_dist}]", n, rate, policy, None, config,
        hold_time=hold_time,
        hold_dist=hold_dist,
        hold_sigma=hold_sigma,
        hold_alpha=hold_alpha,
        reinvite_after=reinvite_after,
    )
