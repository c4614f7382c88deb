"""RFC 3261 timer constants (section 17, table 4).

The retransmission timers are what couple server overload back into
offered load: when a proxy's CPU queue pushes response latency past
Timer A, the client retransmits, adding more load -- the feedback the
paper observes as "increased retransmission of call requests from the
SIPp client" at the saturation knee.

All values derive from T1 (RTT estimate, default 500 ms) and are
grouped in a :class:`TimerPolicy` so experiments can shrink them for
fast tests without touching protocol code.
"""

from __future__ import annotations


class TimerPolicy:
    """Derived RFC 3261 timer values for a given T1/T2/T4."""

    def __init__(self, t1: float = 0.5, t2: float = 4.0, t4: float = 5.0):
        if t1 <= 0 or t2 < t1 or t4 <= 0:
            raise ValueError("require t1 > 0, t2 >= t1, t4 > 0")
        self.t1 = t1
        self.t2 = t2
        self.t4 = t4

    # INVITE client transaction -----------------------------------------
    @property
    def timer_a(self) -> float:
        """Initial INVITE retransmit interval (doubles each time)."""
        return self.t1

    @property
    def timer_b(self) -> float:
        """INVITE transaction timeout."""
        return 64 * self.t1

    @property
    def timer_d(self) -> float:
        """Wait in Completed state for response retransmissions."""
        return 32.0 if self.t1 >= 0.5 else 64 * self.t1

    # non-INVITE client transaction --------------------------------------
    @property
    def timer_e(self) -> float:
        """Initial non-INVITE retransmit interval (doubles, capped at T2)."""
        return self.t1

    @property
    def timer_f(self) -> float:
        """Non-INVITE transaction timeout."""
        return 64 * self.t1

    @property
    def timer_k(self) -> float:
        """Wait for response retransmissions (UDP)."""
        return self.t4

    # Answering node: its 2xx awaits the ACK (repro.sip.transaction.AckWait)
    @property
    def timer_h(self) -> float:
        """Wait for ACK receipt."""
        return 64 * self.t1

    def next_retransmit_interval(self, current: float, invite: bool) -> float:
        """Backoff rule: doubles; non-INVITE intervals cap at T2."""
        doubled = current * 2
        if invite:
            return doubled
        return min(doubled, self.t2)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimerPolicy(t1={self.t1}, t2={self.t2}, t4={self.t4})"


DEFAULT_TIMERS = TimerPolicy()
