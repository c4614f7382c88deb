"""A client that keeps AOR registrations alive (REGISTER refresh).

Real SIP deployments carry a steady background of REGISTER traffic:
every device refreshes its binding before it expires.  This node
emulates a population of devices sharing one network host: each device
re-REGISTERs its AOR on a fixed interval (with per-device phase
jitter), exercising the proxy's registrar path and keeping the location
service populated -- if refreshes stop, bindings expire and calls start
failing with 404, which the failure-injection tests rely on.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.servers.node import Node
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sip.digest import make_authorization
from repro.sip.headers import Via
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import ClientCore


class RegistrarClient(Node):
    """Registers (and periodically refreshes) a set of AORs.

    Parameters
    ----------
    registrar:
        Node name of the proxy acting as registrar.
    aors:
        Addresses-of-record this host serves (the registered contact is
        this node itself).
    refresh_interval:
        Seconds between re-REGISTERs per AOR.
    expires:
        Expires value advertised in the REGISTER (seconds).
    contact_node:
        Node name placed in the Contact header -- where calls for these
        AORs should be delivered (defaults to this node; real devices
        register the address of their SIP stack, which here is usually
        the :class:`~repro.servers.uas.AnsweringServer`).
    auth_username / auth_password / auth_realm / auth_nonce:
        When ``auth_username`` is set, every REGISTER carries a digest
        ``Authorization`` header computed against the registrar's static
        challenge -- the "digest-auth storm" variant where each refresh
        also costs the registrar a credential verification.
    """

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        registrar: str,
        aors: Sequence[str],
        refresh_interval: float = 60.0,
        expires: float = 90.0,
        timers: TimerPolicy = DEFAULT_TIMERS,
        contact_node: Optional[str] = None,
        auth_username: Optional[str] = None,
        auth_password: str = "",
        auth_realm: str = "repro.example.com",
        auth_nonce: str = "repro-nonce",
        **kwargs,
    ):
        if not aors:
            raise ValueError("need at least one AOR")
        if refresh_interval <= 0 or expires <= 0:
            raise ValueError("refresh_interval and expires must be positive")
        super().__init__(name, loop, network, **kwargs)
        self.registrar = registrar
        self.aors = list(aors)
        self.refresh_interval = refresh_interval
        self.expires = expires
        self.timers = timers
        self.contact_node = contact_node or name
        self.auth_username = auth_username
        self.auth_password = auth_password
        self.auth_realm = auth_realm
        self.auth_nonce = auth_nonce
        self.client = ClientCore(self, registrar, branch_tag="reg")
        self._cseq: Dict[str, int] = {aor: 0 for aor in self.aors}
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register every AOR now and begin the refresh schedule."""
        if self._running:
            return
        self._running = True
        jitter = self.rng.spawn("phase")
        for aor in self.aors:
            self._register(aor)
            # Spread refreshes across the interval, but always schedule
            # the first one within a single interval so the binding
            # (expires > interval) can never lapse under the jitter.
            phase = jitter.uniform(0.0, self.refresh_interval)
            self.loop.schedule(phase, self._refresh, aor)

    def stop(self) -> None:
        """Stop refreshing; bindings will expire on their own."""
        self._running = False

    def _refresh(self, aor: str) -> None:
        if not self._running:
            return
        # A refresh due while the node is down sends nothing but keeps
        # its place in the schedule.
        if self.alive:
            self._register(aor)
        self.loop.schedule(self.refresh_interval, self._refresh, aor)

    def on_crash(self) -> None:
        """Pending REGISTERs die with the process."""
        self.client.abort_all()

    # ------------------------------------------------------------------
    # REGISTER transaction
    # ------------------------------------------------------------------
    def _register(self, aor: str) -> None:
        self._cseq[aor] += 1
        branch = self.client.next_branch()
        register = SipRequest.build(
            "REGISTER",
            uri=aor,
            from_addr=aor,
            to_addr=aor,
            call_id=f"{self.name}-reg-{aor}",
            cseq=self._cseq[aor],
            from_tag=f"reg-{self.name}",
        )
        register.set("CSeq", f"{self._cseq[aor]} REGISTER")
        register.set("Contact", f"<sip:{self.contact_node}>")
        # RFC 3261 carries integer delta-seconds, but scaled sim time
        # makes sub-second expiries routine -- truncating 0.75 to 0
        # would unbind the AOR on every refresh.
        register.set("Expires", f"{self.expires:g}")
        if self.auth_username is not None:
            register.set(
                "Authorization",
                make_authorization(
                    self.auth_username, self.auth_realm, self.auth_password,
                    "REGISTER", aor, self.auth_nonce,
                ),
            )
        register.push_via(Via(self.name, branch=branch))

        self.metrics.counter("registers_sent").increment()
        self.client.start(
            register, branch,
            on_response=lambda response: self._on_response(branch, response),
            on_timeout=lambda: self._on_timeout(branch),
        )

    def _on_response(self, branch: str, response: SipResponse) -> None:
        if response.is_provisional:
            return
        self.client.reap(branch, "REGISTER")
        if response.is_success:
            self.metrics.counter("registers_confirmed").increment()
        else:
            self.metrics.counter("registers_rejected").increment()

    def _on_timeout(self, branch: str) -> None:
        self.client.reap(branch, "REGISTER")
        self.metrics.counter("registers_timed_out").increment()

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def handle_message(self, message: SipMessage, src: str) -> None:
        if isinstance(message, SipResponse):
            self.client.dispatch(message)
        else:
            self.metrics.counter("stray_requests").increment()

    @property
    def registers_confirmed(self) -> int:
        return self.metrics.counter("registers_confirmed").value
