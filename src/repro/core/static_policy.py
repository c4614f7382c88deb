"""Statically configured state policies -- the paper's baselines.

"Most widely used proxy servers including OpenSER can be both stateless
and stateful and can be statically configured to behave in one of these
modes" (section 2.2).  A static node applies its mode to *every* call,
which is exactly the inefficiency the paper identifies: a stateful node
wastes cycles duplicating state the chain already holds, a stateless
node wastes the headroom it could have lent to its neighbours.
"""

from __future__ import annotations

import enum


class StaticMode(enum.Enum):
    STATELESS = "stateless"
    TRANSACTION_STATEFUL = "transaction_stateful"
    DIALOG_STATEFUL = "dialog_stateful"


class PolicyDecision:
    """What a policy tells the proxy to do with one request."""

    __slots__ = ("stateful", "dialog_stateful")

    def __init__(self, stateful: bool, dialog_stateful: bool = False):
        self.stateful = stateful
        self.dialog_stateful = dialog_stateful

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "dialog" if self.dialog_stateful else ("txn" if self.stateful else "stateless")
        return f"<PolicyDecision {kind}>"


class StatePolicy:
    """Interface every per-node state policy implements.

    The proxy calls:

    - :meth:`attach` once, handing over its node context (name,
      thresholds, control-send hook),
    - :meth:`decide` for every transaction-initiating request,
    - :meth:`on_period` every monitoring period,
    - :meth:`on_overload_report` when a control message arrives.
    """

    def attach(self, proxy) -> None:
        """Receive the owning proxy (duck-typed ProxyServer)."""

    def decide(
        self,
        ds_path: str,
        already_stateful: bool,
        in_transaction: bool,
        is_exit: bool,
    ) -> PolicyDecision:
        raise NotImplementedError

    def on_period(self, now: float) -> None:
        """Periodic bookkeeping; default no-op."""

    def on_overload_report(self, report, now: float) -> None:
        """Downstream overload notification; default no-op."""

    def note_rejected(self, ds_path: str, is_exit: bool) -> None:
        """A new call was shed (500) before any decision could be made.

        Policies that size state from observed load must count these:
        the *offered* load drives equation (8), and ignoring shed calls
        would clip the observation at the node's capacity.  Default
        no-op.
        """

    def on_peer_down(self, peer: str) -> None:
        """A neighbour crashed (failure-detector notification).

        Policies that plan per-downstream-path shares should forget the
        dead path so its share redistributes.  Default no-op.
        """

    def on_peer_up(self, peer: str) -> None:
        """A crashed neighbour came back.  Default no-op."""

    def on_node_crash(self, now: float) -> None:
        """The *owning* node crashed: drop all volatile planning state.

        Default no-op (static policies hold nothing volatile).
        """

    @property
    def name(self) -> str:
        return type(self).__name__


class StaticPolicy(StatePolicy):
    """Apply one fixed mode to every request.

    >>> policy = StaticPolicy(StaticMode.TRANSACTION_STATEFUL)
    >>> policy.decide("next", already_stateful=True,
    ...               in_transaction=False, is_exit=False).stateful
    True
    """

    def __init__(self, mode: StaticMode):
        self.mode = mode
        self._proxy = None

    def attach(self, proxy) -> None:
        self._proxy = proxy

    def decide(
        self,
        ds_path: str,
        already_stateful: bool,
        in_transaction: bool,
        is_exit: bool,
    ) -> PolicyDecision:
        # A statically stateful server holds state for every call it
        # sees -- even when an upstream server already does.  That
        # duplication is the paper's case (i).
        if self.mode == StaticMode.STATELESS:
            return PolicyDecision(stateful=False)
        dialog = self.mode == StaticMode.DIALOG_STATEFUL
        return PolicyDecision(stateful=True, dialog_stateful=dialog)

    @property
    def name(self) -> str:
        return f"static:{self.mode.value}"


def stateless_policy() -> StaticPolicy:
    return StaticPolicy(StaticMode.STATELESS)


def stateful_policy(dialog: bool = False) -> StaticPolicy:
    mode = StaticMode.DIALOG_STATEFUL if dialog else StaticMode.TRANSACTION_STATEFUL
    return StaticPolicy(mode)


def parse_static_mode(text: str) -> StaticMode:
    """Parse a config string like ``"stateless"`` into a mode."""
    normalized = text.strip().lower().replace("-", "_")
    for mode in StaticMode:
        if mode.value == normalized:
            return mode
    aliases = {
        "sf": StaticMode.TRANSACTION_STATEFUL,
        "stateful": StaticMode.TRANSACTION_STATEFUL,
        "txn": StaticMode.TRANSACTION_STATEFUL,
        "sl": StaticMode.STATELESS,
        "dialog": StaticMode.DIALOG_STATEFUL,
    }
    if normalized in aliases:
        return aliases[normalized]
    raise ValueError(f"unknown static mode {text!r}")
