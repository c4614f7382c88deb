"""OpenSER-like SIP proxy with pluggable state policies.

This node reproduces the server the paper instruments: it can run any of
the five functionality modes of section 3.1 (stateless / lookup /
transaction-stateful / dialog-stateful / authentication) and, through a
:class:`~repro.core.static_policy.StatePolicy`, either a *static*
configuration (the baseline) or the *SERvartuka* dynamic algorithm.

Key behaviours reproduced:

- **Stateful handling** of a request creates a proxy transaction that
  absorbs retransmissions (replaying the stored response), emits ``100
  Trying`` upstream, and Record-Routes itself so it also owns the
  dialog's BYE transaction.
- **Stateless handling** forwards with a deterministic Via branch (RFC
  3261 16.11) and relays *everything*, including retransmissions and
  ``100 Trying`` responses from downstream -- which is what makes the
  paper's "#calls == #100 Trying at the client" statefulness check work
  when the stateful node is further down the chain.
- **State delegation marking**: a node that takes state stamps
  ``X-Servartuka-State: held`` on the forwarded request so downstream
  SERvartuka nodes know the FASF bit of section 4.1.
- **Overload behaviour**: when the CPU backlog exceeds a threshold the
  proxy answers new INVITEs with ``500`` (the paper's "large increase
  in SIP 500 Server Busy messages" at the knee); beyond that, admission
  control drops messages like a full socket buffer.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.costmodel import CostModel, Feature, MessageKind
from repro.core.overload import OverloadReport
from repro.core.stateacct import StateAccount
from repro.core.static_policy import PolicyDecision, StatePolicy, stateful_policy
from repro.servers.location import LocationService
from repro.servers.node import Node, classify_sip_kind
from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop
from repro.sim.network import Network, Packet
from repro.sim.rng import RngStream
from repro.sip.digest import CredentialStore, make_challenge
from repro.sip.dialog import DialogId, DialogStore
from repro.sip.headers import SipHeaderError, Via
from repro.sip.message import SipMessage, SipRequest, SipResponse, forward_clone
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import ProxyTransaction

if TYPE_CHECKING:
    from repro.core.control import ControlPolicy

# Default service-time variability and admission bound; see DESIGN.md
# ("Retransmission feedback").
DEFAULT_NOISE_SIGMA = 0.30
DEFAULT_MAX_QUEUE_DELAY = 1.0

#: Route-table action meaning "this proxy delivers to the end point".
DELIVER_ACTION = "__deliver__"

# Interned feature sets for the planner.  Frozensets compare and hash by
# value, so sharing these singletons is observationally identical to
# building a fresh literal per message; it just skips the allocation.
_FS_EMPTY = frozenset()
_FS_BASE = frozenset({Feature.BASE})
_FS_BASE_LOOKUP = frozenset({Feature.BASE, Feature.LOOKUP})
_FS_BASE_LOOKUP_AUTH = frozenset({Feature.BASE, Feature.LOOKUP, Feature.AUTH})
_FS_AUTH = frozenset({Feature.AUTH})

#: Header carrying the FASF ("state already maintained upstream") bit.
STATE_HEADER = "X-Servartuka-State"
STATE_HELD = "held"

#: Header marking that a call has been authenticated upstream (the
#: authentication-distribution extension, paper section 6.2).
AUTH_HEADER = "X-Servartuka-Auth"
AUTH_DONE = "done"


class RouteTable:
    """Domain-based next-hop routing.

    The paper's call paths are fixed by "underlying network routing
    mechanisms"; here that is a map from request-URI domain to either
    the next proxy's node name or :data:`DELIVER_ACTION`.
    """

    def __init__(self, default: Optional[str] = None):
        self._routes: Dict[str, str] = {}
        self._fallbacks: Dict[str, List[str]] = {}
        self.default = default

    def add(self, domain: str, action: str) -> "RouteTable":
        self._routes[domain.lower()] = action
        return self

    def add_fallback(self, domain: str, action: str) -> "RouteTable":
        """Register a failover next hop tried when earlier ones are dead."""
        self._fallbacks.setdefault(domain.lower(), []).append(action)
        return self

    def action_for(self, host: str) -> Optional[str]:
        return self._routes.get(host.lower(), self.default)

    def candidates_for(self, host: str) -> List[str]:
        """Primary action followed by its fallbacks, in preference order."""
        primary = self.action_for(host)
        if primary is None:
            return []
        return [primary] + self._fallbacks.get(host.lower(), [])

    def domains(self) -> List[str]:
        return list(self._routes)

    def has_deliver(self) -> bool:
        """True when any route terminates at this proxy (exit node)."""
        return DELIVER_ACTION in self._routes.values() or self.default == DELIVER_ACTION

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RouteTable {self._routes}>"


class ProxyConfig:
    """Behavioural knobs for one proxy."""

    def __init__(
        self,
        auth_enabled: bool = False,
        realm: str = "repro.example.com",
        nonce: str = "repro-nonce",
        reject_queue_delay: float = 0.30,
        txn_linger: float = 4.0,
        monitor_period: float = 1.0,
    ):
        for name, value in (("reject_queue_delay", reject_queue_delay),
                            ("txn_linger", txn_linger)):
            if not value >= 0:  # NaN too
                raise ValueError(f"{name} must be >= 0: {value}")
        if not (monitor_period > 0 and math.isfinite(monitor_period)):
            raise ValueError("monitor_period must be finite and positive: "
                             f"{monitor_period}")
        self.auth_enabled = auth_enabled
        self.realm = realm
        self.nonce = nonce
        self.reject_queue_delay = reject_queue_delay
        self.txn_linger = txn_linger
        self.monitor_period = monitor_period


class _Plan:
    """Outcome of classifying+routing a message at receive time."""

    __slots__ = (
        "action", "message", "src", "kind", "features", "extra_vias",
        "next_hop", "ds_key", "is_exit", "decision", "status", "do_auth",
    )

    def __init__(self, action: str, message, src: str, kind: MessageKind,
                 features: frozenset, extra_vias: int):
        self.action = action
        self.message = message
        self.src = src
        self.kind = kind
        self.features = features
        self.extra_vias = extra_vias
        self.next_hop: Optional[str] = None
        self.ds_key: Optional[str] = None
        self.is_exit = False
        self.decision: Optional[PolicyDecision] = None
        self.status: int = 0
        self.do_auth = False


class ProxyServer(Node):
    """A SIP proxy node; see module docstring."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        route_table: RouteTable,
        location: Optional[LocationService] = None,
        policy: Optional[StatePolicy] = None,
        config: Optional[ProxyConfig] = None,
        credentials: Optional[CredentialStore] = None,
        cost_model: Optional[CostModel] = None,
        timers: TimerPolicy = DEFAULT_TIMERS,
        auth_policy: Optional[StatePolicy] = None,
        control: Optional[ControlPolicy] = None,
        rng: Optional[RngStream] = None,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        max_queue_delay: float = DEFAULT_MAX_QUEUE_DELAY,
    ):
        super().__init__(name, loop, network, rng=rng)
        self.cost_model = cost_model or CostModel()
        # The only node with a CPU: every message it receives is charged
        # to this model before it is handled.
        self.cpu = CpuModel(loop, self.rng.spawn("cpu"),
                            noise_sigma=noise_sigma,
                            max_queue_delay=max_queue_delay)
        self.route_table = route_table
        self.location = location or LocationService()
        self.policy = policy or stateful_policy()
        self.config = config or ProxyConfig()
        self.credentials = credentials
        self.timers = timers
        # Optional dynamic distribution of the authentication function;
        # None means "authenticate here whenever auth is enabled".
        self.auth_policy = auth_policy
        # Optional overload-control admission policy (repro.core.control);
        # None (the default) keeps every hot path at a single attribute
        # test -- the dormant-overhead contract.
        self.control = control
        self._control_last_packets = 0
        # Controller rejections planned but not yet executed: while the
        # 503 job waits its turn in the CPU queue, upstream INVITE
        # retransmissions of the same transaction must be absorbed at
        # the cheap ABSORB cost instead of being re-planned as fresh
        # INVITEs (which would re-enter admission, schedule duplicate
        # 503 jobs and self-inflate the reject churn under overload).
        self._pending_rejects: Dict[Tuple[str, str, str], float] = {}

        self._transactions: Dict[Tuple[str, str, str], ProxyTransaction] = {}
        self._by_forwarded_branch: Dict[str, ProxyTransaction] = {}
        self.dialogs = DialogStore()
        # Per-species state-size ledger (registration vs transaction vs
        # dialog); the registration churn it observes also derates the
        # state thresholds Algorithm 1/2 plan with (state_thresholds).
        self.state_account = StateAccount()
        self._register_rate = 0.0
        self._register_seen_last = 0
        self._branch_counter = 0
        self._via_ema = 0.0
        self._upstream_new_calls: Dict[str, float] = {}
        self._down_peers: set = set()
        # What this proxy Record-Routes, and so the Route value that
        # names it (RFC 3261 16.4: matched exactly, never by substring).
        self._route_value = f"<sip:{name};lr>"
        # Feature sets, memoized by their deciding booleans.
        self._feature_sets: Dict[tuple, frozenset] = {}
        self._packets_counter = None
        # Bound-method dispatch table (built once; getattr per message
        # is measurable on the hot path).
        self._handlers = {
            action: getattr(self, method)
            for action, method in self._ACTION_HANDLERS.items()
        }
        self.policy.attach(self)
        if self.auth_policy is not None:
            self.auth_policy.attach(self)
        if self.control is not None:
            self.control.attach(self)
        self._monitor_handle = self.loop.schedule(
            self.config.monitor_period, self._monitor
        )

    # ==================================================================
    # Receive path: plan (classification + routing + policy), then charge
    # ==================================================================
    def receive(self, packet: Packet) -> None:
        if not self.alive:
            self.metrics.counter("activity_while_dead").increment()
            return
        # Lazily cached on first use (never pre-created: registry
        # snapshots are compared exactly across engines, so an eager
        # zero-valued counter would diverge).
        counter = self._packets_counter
        if counter is None:
            counter = self._packets_counter = self.metrics.counter(
                "packets_received"
            )
        counter.increment()
        payload = packet.payload
        if isinstance(payload, OverloadReport):
            cost, components = self.cost_model.message_cost(MessageKind.CONTROL)
            self.cpu.submit(
                cost, self._handle_control, payload, components=components,
                func="control-msg",
            )
            return
        if not isinstance(payload, SipMessage):
            self.metrics.counter("unknown_payloads").increment()
            return

        if isinstance(payload, SipRequest):
            plan = self._plan_request(payload, packet.src)
        else:
            plan = self._plan_response(payload, packet.src)
        if plan is None:
            return
        cost, components = self.cost_model.message_cost(
            plan.kind, plan.features, plan.extra_vias
        )
        func = self._plan_func(plan) if self.cpu.profiler is not None else None
        job = self.cpu.submit(cost, self._execute, plan, components=components,
                              func=func)
        if job is None:
            self.metrics.counter("messages_dropped_overload").increment()

    # Simple plan actions -> functionality label; the forward_* actions
    # refine on the plan's policy decision in _plan_func.
    _ACTION_FUNCS = {
        "absorb": "state-lookup",
        "ack_stateful": "state-lookup",
        "cancel_stateful": "state-lookup",
        "register": "state-create",
        "reject": "forward",
        "forward_other": "forward",
    }

    def _plan_func(self, plan: _Plan) -> str:
        """Functionality label for a planned action (profiling only)."""
        action = plan.action
        label = self._ACTION_FUNCS.get(action)
        if label is not None:
            return label
        stateful = plan.decision is not None and plan.decision.stateful
        if action == "forward_invite":
            return "state-create" if stateful else "forward"
        if action == "forward_reinvite":
            # Session refresh rides the existing dialog: a new transaction
            # where we own the dialog, plain forwarding otherwise.
            return "state-lookup" if stateful else "forward"
        if action == "forward_bye":
            # An owning BYE begins the dialog/transaction teardown.
            return "state-destroy" if stateful else "forward"
        if action == "forward_response":
            top = plan.message.top_via
            transaction = (
                self._by_forwarded_branch.get(top.branch or "")
                if top is not None else None
            )
            if transaction is None:
                return "forward"
            return ("state-destroy" if plan.message.is_final
                    else "state-lookup")
        return "forward"

    def _features_for(self, is_exit: bool, do_auth: bool, stateful: bool,
                      dialog: bool) -> frozenset:
        """Memoized feature set; identical to building it imperatively."""
        key = (is_exit, do_auth, stateful, dialog and stateful)
        interned = self._feature_sets.get(key)
        if interned is None:
            features = {Feature.BASE}
            if is_exit:
                features.add(Feature.LOOKUP)
            if do_auth:
                features.add(Feature.AUTH)
            if stateful:
                features.add(Feature.TXN_STATE)
                if dialog:
                    features.add(Feature.DIALOG_STATE)
            interned = self._feature_sets[key] = frozenset(features)
        return interned

    # ------------------------------------------------------------------
    # Request planning
    # ------------------------------------------------------------------
    def _plan_request(self, request: SipRequest, src: str) -> Optional[_Plan]:
        extra_vias = request.count("Via") - 1
        if extra_vias < 0:
            extra_vias = 0
        kind = classify_sip_kind(request)

        # Retransmission / ACK / CANCEL handling by an existing transaction.
        transaction = self._find_transaction(request)
        if transaction is not None:
            if request.method == "ACK":
                if self.control is not None and transaction.next_hop is None:
                    # Cheap-rejection path: the ACK for a *locally*
                    # generated non-2xx (the controller's 503) is
                    # matched and discarded at absorb cost -- rejecting
                    # a call must stay far cheaper than processing it,
                    # ACK included, or rejection itself saturates the
                    # server under overload.
                    return _Plan("ack_stateful", request, src,
                                 MessageKind.ABSORB_RETRANSMIT,
                                 _FS_EMPTY, extra_vias)
                return _Plan("ack_stateful", request, src,
                             MessageKind.ACK, _FS_BASE, extra_vias)
            if request.method == "CANCEL":
                return _Plan("cancel_stateful", request, src,
                             MessageKind.GENERIC, _FS_BASE,
                             extra_vias)
            return _Plan("absorb", request, src,
                         MessageKind.ABSORB_RETRANSMIT, _FS_EMPTY,
                         extra_vias)

        if request.method == "REGISTER":
            if self.config.auth_enabled:
                # Registrar-side digest auth (RFC 3261 22.2): an
                # unauthenticated REGISTER is challenged with 401, and an
                # authenticated one is charged the combined
                # register+authentication cost.
                if not self._check_register_auth(request):
                    plan = _Plan("reject", request, src,
                                 MessageKind.REJECT, _FS_AUTH,
                                 extra_vias)
                    plan.status = 401
                    return plan
                return _Plan("register", request, src,
                             MessageKind.REGISTER_AUTH,
                             _FS_BASE_LOOKUP_AUTH, extra_vias)
            return _Plan("register", request, src,
                         MessageKind.REGISTER, _FS_BASE_LOOKUP,
                         extra_vias)

        # Routing, with failover: once the failure detector reports a
        # next hop dead, skip it for any live alternative (the Figure-8
        # load balancer's behaviour after losing a fork).
        candidates = self.route_table.candidates_for(request.uri.host)
        if not candidates:
            plan = _Plan("reject", request, src, MessageKind.REJECT,
                         _FS_EMPTY, extra_vias)
            plan.status = 404
            return plan
        action = candidates[0]
        if action != DELIVER_ACTION and action in self._down_peers:
            for alternative in candidates[1:]:
                if alternative == DELIVER_ACTION or alternative not in self._down_peers:
                    action = alternative
                    self.metrics.counter("failover_reroutes").increment()
                    break
        is_exit = action == DELIVER_ACTION
        ds_key = action

        if request.method == "INVITE" and request.to.tag is not None:
            # In-dialog (re-)INVITE: already admitted when the dialog was
            # set up, so it bypasses overload control, shedding, auth and
            # the distribution policy -- like a BYE, it is transaction-
            # stateful only where this node Record-Routed itself in.
            owns = self._owns_dialog(request)
            plan = _Plan(
                "forward_reinvite", request, src, kind,
                self._features_for(is_exit, False, owns, False), extra_vias,
            )
            plan.decision = PolicyDecision(stateful=owns)
        elif request.method == "INVITE":
            # Overload control (repro.core.control): the admission
            # decision comes first so the controller sees the full
            # offered load; a controller rejection is a real 503 with
            # Retry-After, charged at the cheap REJECT cost.
            if self.control is not None:
                try:
                    txn_key = request.transaction_key()
                except SipHeaderError:
                    txn_key = None
                if txn_key is not None and txn_key in self._pending_rejects:
                    # Retransmit of an INVITE whose 503 is still queued.
                    return _Plan("absorb", request, src,
                                 MessageKind.ABSORB_RETRANSMIT,
                                 _FS_EMPTY, extra_vias)
                try:
                    call_id = request.call_id
                except SipHeaderError:
                    call_id = None
                if not self.control.admit(src, ds_key, call_id,
                                          self.loop.now):
                    self.policy.note_rejected(ds_key, is_exit)
                    if self.auth_policy is not None:
                        self.auth_policy.note_rejected(ds_key, is_exit)
                    plan = _Plan("reject", request, src,
                                 MessageKind.REJECT, _FS_EMPTY,
                                 extra_vias)
                    plan.status = 503
                    if txn_key is not None:
                        self._pending_rejects[txn_key] = self.loop.now
                    return plan

            # Overload shedding: answer 500 when the backlog is deep.
            if (
                self.config.reject_queue_delay > 0
                and self.cpu.queue_delay() > self.config.reject_queue_delay
            ):
                self.policy.note_rejected(ds_key, is_exit)
                if self.auth_policy is not None:
                    self.auth_policy.note_rejected(ds_key, is_exit)
                plan = _Plan("reject", request, src,
                             MessageKind.REJECT, _FS_EMPTY,
                             extra_vias)
                plan.status = 500
                return plan

            do_auth = False
            if self.config.auth_enabled:
                already_authed = request.get(AUTH_HEADER) == AUTH_DONE
                if self.auth_policy is not None:
                    # Authentication distribution: decide whether *this*
                    # node performs the credential check or delegates it
                    # downstream, exactly like state.
                    do_auth = self.auth_policy.decide(
                        ds_path=ds_key,
                        already_stateful=already_authed,
                        in_transaction=False,
                        is_exit=is_exit,
                    ).stateful
                else:
                    do_auth = not already_authed
                if do_auth and not self._check_auth(request):
                    plan = _Plan("reject", request, src,
                                 MessageKind.REJECT, _FS_AUTH,
                                 extra_vias)
                    plan.status = 407
                    return plan

            already_stateful = request.get(STATE_HEADER) == STATE_HELD
            decision = self.policy.decide(
                ds_path=ds_key,
                already_stateful=already_stateful,
                in_transaction=False,
                is_exit=is_exit,
            )
            self._track_via_ema(extra_vias)
            self._upstream_new_calls[src] = self._upstream_new_calls.get(src, 0.0) + 1.0

            plan = _Plan(
                "forward_invite", request, src, kind,
                self._features_for(is_exit, do_auth, decision.stateful,
                                   decision.dialog_stateful),
                extra_vias,
            )
            plan.decision = decision
            plan.do_auth = do_auth
        elif request.method == "BYE":
            owns = self._owns_dialog(request)
            plan = _Plan(
                "forward_bye", request, src, kind,
                self._features_for(is_exit, False, owns, False), extra_vias,
            )
            plan.decision = PolicyDecision(stateful=owns)
        else:
            plan = _Plan(
                "forward_other", request, src, kind,
                _FS_BASE_LOOKUP if is_exit else _FS_BASE, extra_vias,
            )

        plan.next_hop = None if is_exit else action
        plan.ds_key = ds_key
        plan.is_exit = is_exit
        return plan

    def _find_transaction(self, request: SipRequest) -> Optional[ProxyTransaction]:
        try:
            key = request.transaction_key()
        except SipHeaderError:
            return None
        return self._transactions.get(key)

    def _owns_dialog(self, request: SipRequest) -> bool:
        """True when this node Record-Routed itself into the dialog."""
        return self._route_value in request.get_all("Route")

    def _check_auth(self, request: SipRequest) -> bool:
        if self.credentials is None:
            return True
        header = request.get("Proxy-Authorization")
        if header is None:
            return False
        return self.credentials.verify(header, request.method)

    def _check_register_auth(self, request: SipRequest) -> bool:
        """Registrar auth uses the end-to-end Authorization header
        (401 challenge), not the proxy-to-proxy one (407)."""
        if self.credentials is None:
            return True
        header = (request.get("Authorization")
                  or request.get("Proxy-Authorization"))
        if header is None:
            return False
        return self.credentials.verify(header, request.method)

    def _track_via_ema(self, extra_vias: int) -> None:
        self._via_ema = 0.95 * self._via_ema + 0.05 * float(extra_vias)

    # ------------------------------------------------------------------
    # Response planning
    # ------------------------------------------------------------------
    def _plan_response(self, response: SipResponse, src: str) -> Optional[_Plan]:
        extra_vias = response.count("Via") - 1
        if extra_vias < 0:
            extra_vias = 0
        kind = classify_sip_kind(response)
        top = response.top_via
        if top is None or top.host != self.name:
            self.metrics.counter("stray_responses").increment()
            return None
        return _Plan("forward_response", response, src, kind,
                     _FS_BASE, extra_vias)

    # ==================================================================
    # Execution (runs after the CPU job completes)
    # ==================================================================
    # Action -> unbound handler; bound per call in _execute.  A class
    # attribute so the hot path does not rebuild the dict per message.
    _ACTION_HANDLERS = {
        "absorb": "_do_absorb",
        "ack_stateful": "_do_ack_stateful",
        "cancel_stateful": "_do_cancel_stateful",
        "register": "_do_register",
        "reject": "_do_reject",
        "forward_invite": "_do_forward_request",
        "forward_reinvite": "_do_forward_request",
        "forward_bye": "_do_forward_request",
        "forward_other": "_do_forward_request",
        "forward_response": "_do_forward_response",
    }

    def _execute(self, plan: _Plan) -> None:
        self._handlers[plan.action](plan)

    # ------------------------------------------------------------------
    # Stateful absorption
    # ------------------------------------------------------------------
    def _do_absorb(self, plan: _Plan) -> None:
        transaction = self._find_transaction(plan.message)
        self.metrics.counter("retransmits_absorbed").increment()
        if transaction is None:
            return  # transaction expired between plan and execution
        if transaction.final_wire is not None:
            # The wire parser is a leaf: only a replay loads it here.
            from repro.sip.parser import parse_message

            self.send(transaction.upstream, parse_message(transaction.final_wire))
        elif transaction.method == "INVITE":
            self._send_trying(plan.message, transaction.upstream)

    def _do_ack_stateful(self, plan: _Plan) -> None:
        # ACK for a non-2xx final answered by our stored response; it is
        # hop-by-hop and stops here.
        self.metrics.counter("acks_consumed").increment()

    def _do_cancel_stateful(self, plan: _Plan) -> None:
        """CANCEL for an INVITE transaction we hold (RFC 3261 16.10):
        answer it 200 hop-by-hop and issue our own CANCEL downstream on
        the branch of the forwarded INVITE."""
        request: SipRequest = plan.message
        transaction = self._find_transaction(request)
        self.metrics.counter("cancels_handled").increment()
        self.send_response(SipResponse.for_request(request, 200), plan.src)
        if transaction is None or transaction.completed:
            return  # too late: a final response already went upstream
        if transaction.next_hop is None:
            return
        transaction.stop_retransmitting()
        forwarded = request.copy()
        try:
            forwarded.decrement_max_forwards()
        except SipHeaderError:
            pass
        forwarded.push_via(Via(self.name, branch=transaction.forwarded_branch))
        self.send(transaction.next_hop, forwarded)

    # ------------------------------------------------------------------
    # Local responses
    # ------------------------------------------------------------------
    def _do_register(self, plan: _Plan) -> None:
        request: SipRequest = plan.message
        contact = request.get("Contact")
        aor = request.to.uri.aor
        contact_host = plan.src
        if contact:
            try:
                from repro.sip.headers import NameAddr
                contact_host = NameAddr.parse(contact).uri.host
            except (ValueError, SipHeaderError):
                pass
        try:
            expires = float(request.get("Expires"))
        except (TypeError, ValueError):  # absent or unparsable
            expires = None
        # nan, inf and negative values are as unusable as unparsable
        # ones; fractions stay (the registrar client scales Expires
        # below one second).
        if expires is not None and not 0.0 <= expires < math.inf:
            expires = None
        if expires == 0.0:
            # RFC 3261 10.3 step 6: Expires 0 removes the binding.
            if self.location.unregister(aor, contact_host):
                self.state_account.destroyed("registration")
        else:
            if self.location.is_registered(aor, contact_host):
                self.state_account.refreshed("registration")
            else:
                self.state_account.created("registration")
            self.location.register(
                aor, contact_host,
                expires_at=None if expires is None else self.loop.now + expires,
            )
        self.metrics.counter("registrations").increment()
        self._respond_locally(request, 200)

    def _do_reject(self, plan: _Plan) -> None:
        request: SipRequest = plan.message
        self.metrics.counter(f"rejected_{plan.status}").increment()
        if plan.status == 500:
            self.metrics.counter("server_busy_sent").increment()
        response = SipResponse.for_request(request, plan.status)
        if plan.status == 407:
            response.set(
                "Proxy-Authenticate",
                make_challenge(self.config.realm, self.config.nonce),
            )
        elif plan.status == 401:
            # Registrar challenge (end-to-end, RFC 3261 22.2).
            response.set(
                "WWW-Authenticate",
                make_challenge(self.config.realm, self.config.nonce),
            )
        elif plan.status == 503 and self.control is not None:
            # RFC 3261 21.5.4: tell the upstream when to come back.
            # (A controller exists, so its module is already loaded.)
            from repro.core.control import format_retry_after

            response.set(
                "Retry-After",
                format_retry_after(self.control.retry_after_value()),
            )
        # A locally generated final is inherently stateful (RFC 3261
        # 16.7): remember it briefly so retransmits are absorbed and the
        # client's ACK for a non-2xx is consumed here, not forwarded.
        if request.method == "INVITE":
            try:
                key = request.transaction_key()
            except SipHeaderError:
                key = None
            if key is not None and self._pending_rejects:
                # The 503 left the queue; the transaction below takes
                # over absorbing retransmits from here.
                self._pending_rejects.pop(key, None)
            if key is not None and key not in self._transactions:
                self._branch_counter += 1
                branch = f"reject-{self.name}-{self._branch_counter}"
                transaction = ProxyTransaction(
                    self, key, request.method, plan.src, branch)
                transaction.complete(response)
                self._transactions[key] = transaction
                self.state_account.created("transaction")
        self.send_response(response, plan.src)

    def _respond_locally(self, request: SipRequest, status: int) -> None:
        self.send_response(SipResponse.for_request(request, status))

    def _send_trying(self, request: SipRequest, upstream: str) -> None:
        trying = SipResponse.for_request(request, 100)
        self.metrics.counter("trying_sent").increment()
        self.send(upstream, trying)

    # ------------------------------------------------------------------
    # Request forwarding
    # ------------------------------------------------------------------
    def _next_branch(self) -> str:
        self._branch_counter += 1
        return f"{Via.MAGIC_COOKIE}-{self.name}-{self._branch_counter}"

    def _stateless_branch(self, request: SipRequest) -> str:
        """Deterministic branch so stateless retransmit forwarding maps
        to the same downstream transaction (RFC 3261 16.11).

        The seed uses the *transaction* method: a CANCEL carries its
        INVITE's branch end-to-end, so both must map to the same
        downstream branch for the stateful element past us to match
        them up.
        """
        top = request.top_via
        method = request.method
        if method in ("ACK", "CANCEL"):
            method = "INVITE"
        seed = f"{self.name}:{top.branch if top else ''}:{method}"
        digest = hashlib.md5(seed.encode("utf-8")).hexdigest()[:16]
        return f"{Via.MAGIC_COOKIE}-sl-{digest}"

    def _do_forward_request(self, plan: _Plan) -> None:
        request: SipRequest = plan.message
        # Read, not decremented in place: the sender may hold this very
        # object for retransmission.  Only the forwarded copy changes.
        try:
            remaining = request.max_forwards() - 1
        except SipHeaderError:
            remaining = -1
        if remaining < 0:
            plan.status = 483
            self._do_reject(plan)
            return

        next_hop = plan.next_hop
        if plan.is_exit:
            binding = self.location.lookup(request.uri.aor, self.loop.now)
            if binding is None:
                plan.status = 404
                self._do_reject(plan)
                return
            next_hop = binding.node

        # Decide first, then build the downstream copy in one pass.  The
        # 100 Trying still precedes the forwarded request on the wire.
        set_state = False
        transaction = None
        if plan.decision is not None and plan.decision.stateful:
            branch = self._next_branch()
            transaction = self._create_transaction(
                request, plan.src, branch, plan)
            if request.method == "INVITE":
                self._send_trying(request, plan.src)
                # Stamps the FASF bit and Record-Routes.
                set_state = True
                self.metrics.counter("invites_stateful").increment()
            else:
                self.metrics.counter("byes_stateful").increment()
        else:
            branch = self._stateless_branch(request)
            if request.method == "INVITE":
                self.metrics.counter("invites_stateless").increment()
            elif request.method == "BYE":
                self.metrics.counter("byes_stateless").increment()
        if plan.do_auth:
            self.metrics.counter("invites_authenticated").increment()
        forwarded = forward_clone(
            request,
            self.name,
            branch,
            self._route_value,
            (AUTH_HEADER, AUTH_DONE) if plan.do_auth else None,
            (STATE_HEADER, STATE_HELD) if set_state else None,
            set_state,
            str(remaining),
        )
        self.metrics.counter("requests_forwarded").increment()
        self.send(next_hop, forwarded)
        if transaction is not None:
            transaction.start_retransmitting(forwarded, next_hop)

    def _create_transaction(
        self, request: SipRequest, upstream: str, branch: str, plan: _Plan
    ) -> Optional[ProxyTransaction]:
        try:
            key = request.transaction_key()
        except SipHeaderError:
            return None
        transaction = ProxyTransaction(
            self, key, request.method, upstream, branch)
        superseded = self._transactions.get(key)
        if superseded is not None:  # a copy planned before the first ran
            superseded.terminate()
        self._transactions[key] = transaction
        self._by_forwarded_branch[branch] = transaction
        self.metrics.counter("transactions_created").increment()
        self.state_account.created("transaction")
        # Hard lifetime bound: Timer C equivalent.
        self.loop.schedule(self.timers.timer_b, transaction.expire)

        if plan.decision is not None and plan.decision.dialog_stateful:
            dialog_id = DialogId.from_message(request, local_is_from=True)
            if self.dialogs.find(dialog_id) is None:
                self.dialogs.create(dialog_id)
                self.metrics.counter("dialogs_created").increment()
                self.state_account.created("dialog")
        return transaction

    # ------------------------------------------------------------------
    # Response forwarding
    # ------------------------------------------------------------------
    def _do_forward_response(self, plan: _Plan) -> None:
        response: SipResponse = plan.message
        forwarded = response.copy()
        own_via = forwarded.pop_via()
        if own_via is None:
            return
        transaction = self._by_forwarded_branch.get(own_via.branch or "")
        if transaction is not None:
            transaction.response_seen = True
            transaction.stop_retransmitting()
            try:
                cseq_method = response.cseq.method
            except SipHeaderError:
                cseq_method = ""
            if cseq_method == "CANCEL":
                # Hop-by-hop: we already answered the upstream CANCEL
                # ourselves; the downstream 200 stops here.
                self.metrics.counter("cancel_responses_absorbed").increment()
                return

        if response.status == 100:
            if transaction is not None:
                # We generated our own 100 upstream; absorb this one.
                self.metrics.counter("trying_absorbed").increment()
                return
            # Stateless relay of a downstream node's 100 (see docstring).
            self.metrics.counter("trying_relayed").increment()

        if self.control is not None and response.is_final:
            self._control_note_response(response, plan.src)

        if transaction is not None and response.is_final:
            transaction.complete(forwarded)
            if transaction.method == "BYE" and response.is_success:
                dialog_id = self.dialogs.find_by_call_id(response.call_id)
                if dialog_id is not None:
                    self.dialogs.remove(dialog_id)
                    self.state_account.destroyed("dialog")

        if self.send_response(forwarded) is not None:
            self.metrics.counter("responses_forwarded").increment()

    def _control_note_response(self, response: SipResponse, src: str) -> None:
        """Feed a final response passing back upstream to the overload
        controller: release the call's window slot and, for a 503 from
        a downstream neighbor, trigger the signal-based backoff."""
        control = self.control
        try:
            if response.cseq.method == "INVITE":
                control.note_final(response.call_id, self.loop.now)
        except SipHeaderError:
            pass
        if response.status == 503:
            control.on_503(src, response.get("Retry-After"), self.loop.now)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _handle_control(self, report: OverloadReport) -> None:
        self.metrics.counter("overload_reports_received").increment()
        if report.resource == "auth" and self.auth_policy is not None:
            self.auth_policy.on_overload_report(report, self.loop.now)
        else:
            self.policy.on_overload_report(report, self.loop.now)

    def broadcast_overload(
        self,
        overloaded: bool,
        c_asf_rate: float,
        sequence: int,
        resource: str = "state",
    ) -> None:
        """Send an overload/clear report to every known upstream,
        splitting the sustainable rate by their traffic share."""
        total = sum(self._upstream_new_calls.values())
        if total <= 0:
            return
        self.metrics.counter("overload_reports_sent").increment()
        for upstream, count in self._upstream_new_calls.items():
            share = count / total
            report = OverloadReport(
                origin=self.name,
                overloaded=overloaded,
                c_asf_rate=c_asf_rate * share,
                sequence=sequence,
                resource=resource,
            )
            self.send(upstream, report)

    def _base_features(self) -> set:
        features = {Feature.BASE}
        if self.route_table.has_deliver():
            features.add(Feature.LOOKUP)
        return features

    def state_thresholds(self) -> Tuple[float, float]:
        """(T_SF, T_SL) for this node under its current message mix.

        When the node also serves REGISTER traffic, the CPU those
        messages consume is not available for call setup, so both
        thresholds are derated by the registrar's CPU share (message
        costs are already expressed as CPU-seconds per message, so
        ``rate x cost`` is a utilization fraction directly).  Nodes with
        no registration load take the original code path bit-for-bit.
        """
        features = self._base_features()
        if self.config.auth_enabled:
            features.add(Feature.AUTH)
        t_sf, t_sl = self.cost_model.node_thresholds(
            features, depth=self._via_ema
        )
        if self._register_rate > 0.0:
            kind = (MessageKind.REGISTER_AUTH if self.config.auth_enabled
                    else MessageKind.REGISTER)
            reg_cost, _ = self.cost_model.message_cost(kind, _FS_BASE_LOOKUP)
            headroom = 1.0 - self._register_rate * reg_cost
            if headroom < 0.05:
                headroom = 0.05  # never plan a node to zero capacity
            t_sf *= headroom
            t_sl *= headroom
        return t_sf, t_sl

    def auth_thresholds(self) -> Tuple[float, float]:
        """Capacity with and without the authentication function.

        Both include the transaction-state feature: the state and auth
        policies plan independently, so each must assume the other
        function runs here too -- conservative, which keeps the combined
        plan feasible (never above 100% utilization).
        """
        features = self._base_features() | {Feature.TXN_STATE}
        with_auth = self.cost_model.capacity_cps(
            features | {Feature.AUTH}, depth=self._via_ema
        )
        without = self.cost_model.capacity_cps(features, depth=self._via_ema)
        return with_auth, without

    def resource_thresholds(self, resource: str) -> Tuple[float, float]:
        """Dispatch for :class:`~repro.core.servartuka.ServartukaPolicy`."""
        if resource == "auth":
            return self.auth_thresholds()
        if resource == "state":
            return self.state_thresholds()
        raise ValueError(f"unknown distributed resource {resource!r}")

    def _monitor(self) -> None:
        if not self.alive:
            return
        now = self.loop.now
        self.policy.on_period(now)
        if self.auth_policy is not None:
            self.auth_policy.on_period(now)
        utilization = self.cpu.tick(now)
        if self.control is not None:
            packets = (
                self._packets_counter.value
                if self._packets_counter is not None else 0
            )
            msg_rate = (
                (packets - self._control_last_packets)
                / self.config.monitor_period
            )
            self._control_last_packets = packets
            self.control.observe(now, utilization, self.cpu.pending_jobs,
                                 msg_rate)
            if self._pending_rejects:
                # A planned 503 whose CPU job was dropped at the queue
                # cap never executes; past Timer B the upstream has
                # stopped retransmitting, so the entry is dead.
                horizon = now - self.timers.timer_b
                stale = [key for key, at in self._pending_rejects.items()
                         if at <= horizon]
                for key in stale:
                    del self._pending_rejects[key]
        # Registrar CPU share for threshold derating.  Gated on having
        # ever seen a REGISTER so scenarios without registration load
        # keep the exact pre-existing monitor work.
        regs = self.state_account.total["registration"]
        if regs or self._register_rate:
            self._register_rate = (
                (regs - self._register_seen_last) / self.config.monitor_period
            )
            self._register_seen_last = regs
        # Upstream shares decay so old traffic does not skew the split.
        for upstream in list(self._upstream_new_calls):
            self._upstream_new_calls[upstream] *= 0.5
            if self._upstream_new_calls[upstream] < 0.5:
                del self._upstream_new_calls[upstream]
        self._monitor_handle = self.loop.schedule(
            self.config.monitor_period, self._monitor
        )

    # ------------------------------------------------------------------
    # Crash/restart lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Everything volatile dies with the process.

        Transaction and dialog state is the paper's trade-off made
        concrete: calls whose only copy of state lived here can no
        longer be recovered by this node -- whether they survive now
        depends entirely on end-to-end RFC 3261 retransmission.
        """
        aborted = self.cpu.halt()  # queued jobs never run
        if aborted:
            self.metrics.counter("cpu_jobs_lost_on_crash").increment(aborted)
        if self._monitor_handle is not None:
            self._monitor_handle.cancel()
            self._monitor_handle = None
        live = sum(1 for t in self._transactions.values() if not t.completed)
        if live:
            self.metrics.counter("transactions_lost_on_crash").increment(live)
        for transaction in self._transactions.values():
            transaction.stop_retransmitting()
            transaction.terminate()
        self._transactions.clear()
        self._by_forwarded_branch.clear()
        lost_dialogs = self.dialogs.clear()
        if lost_dialogs:
            self.metrics.counter("dialogs_lost_on_crash").increment(lost_dialogs)
        self.state_account.reset_live("transaction", "dialog")
        self._upstream_new_calls.clear()
        self.policy.on_node_crash(self.loop.now)
        if self.auth_policy is not None:
            self.auth_policy.on_node_crash(self.loop.now)
        if self.control is not None:
            self._pending_rejects.clear()
            self.control.on_node_crash(self.loop.now)

    def on_restart(self) -> None:
        """Fresh process: empty tables, monitoring restarts from now."""
        self.cpu.resume()
        self._down_peers.clear()
        self._monitor_handle = self.loop.schedule(
            self.config.monitor_period, self._monitor
        )

    # ------------------------------------------------------------------
    # Failure-detector notifications (from repro.sim.faults)
    # ------------------------------------------------------------------
    def notify_peer_down(self, peer: str) -> None:
        self._down_peers.add(peer)
        self.metrics.counter("peer_down_notices").increment()
        # The dead peer can neither receive delegated state nor send us
        # traffic worth tracking for the overload split.
        self._upstream_new_calls.pop(peer, None)
        self.policy.on_peer_down(peer)
        if self.auth_policy is not None:
            self.auth_policy.on_peer_down(peer)

    def notify_peer_up(self, peer: str) -> None:
        self._down_peers.discard(peer)
        self.metrics.counter("peer_up_notices").increment()
        self.policy.on_peer_up(peer)
        if self.auth_policy is not None:
            self.auth_policy.on_peer_up(peer)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_transactions(self) -> int:
        return len(self._transactions)
