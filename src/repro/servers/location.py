"""The location service: AOR -> contact bindings.

The paper's testbed populates an OpenSER database with the SIPp server
URIs; the proxy's *lookup* functionality (Figure 3's "thin lookup band")
translates a request URI into the IP address of the end point.  Here a
binding maps an address-of-record to the network node that hosts the
device plus the device's contact URI.  The lookup CPU cost is charged by
the proxy through the cost model; this class is pure data.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sip.uri import SipUri, parse_uri


class Binding:
    """One registered device for an AOR."""

    __slots__ = ("aor", "node", "contact", "expires_at")

    def __init__(self, aor: str, node: str, contact: SipUri, expires_at: Optional[float] = None):
        self.aor = aor
        self.node = node
        self.contact = contact
        self.expires_at = expires_at

    def is_expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Binding {self.aor} -> {self.node} ({self.contact})>"


class LocationService:
    """Registrar database shared by the proxies of a domain."""

    _KEY_MEMO_MAX = 4096

    def __init__(self, name: str = "location"):
        self.name = name
        self._bindings: Dict[str, List[Binding]] = {}
        # AOR URI text -> its user@host key: a pure function over the
        # scenario's AORs, memoized per service.  It stops growing at
        # _KEY_MEMO_MAX entries and never holds a failed parse.
        self._keys: Dict[str, str] = {}
        self.lookups = 0
        self.misses = 0

    def _key(self, aor: str) -> str:
        """Normalize an AOR string or URI to user@host."""
        if not aor.startswith(("sip:", "sips:", "<")):
            return aor
        key = self._keys.get(aor)
        if key is None:
            uri = parse_uri(aor)
            key = f"{uri.user}@{uri.host}" if uri.user else uri.host
            if len(self._keys) < self._KEY_MEMO_MAX:
                self._keys[aor] = key
        return key

    def register(
        self,
        aor: str,
        node: str,
        contact: Optional[str] = None,
        expires_at: Optional[float] = None,
    ) -> Binding:
        """Bind an AOR to a hosting node (and optionally a contact URI)."""
        key = self._key(aor)
        contact_uri = parse_uri(contact) if contact else parse_uri(f"sip:{key}")
        binding = Binding(key, node, contact_uri, expires_at)
        bucket = self._bindings.setdefault(key, [])
        bucket[:] = [b for b in bucket if b.node != node]
        bucket.append(binding)
        return binding

    def unregister(self, aor: str, node: Optional[str] = None) -> int:
        """Drop bindings for an AOR (all of them, or one node's)."""
        key = self._key(aor)
        bucket = self._bindings.get(key, [])
        before = len(bucket)
        if node is None:
            bucket.clear()
        else:
            bucket[:] = [b for b in bucket if b.node != node]
        if not bucket:
            self._bindings.pop(key, None)
        return before - len(bucket)

    def is_registered(self, aor: str, node: str) -> bool:
        """True when the node already holds a binding for the AOR.

        A peek, not a lookup: it ignores expiry and does not touch the
        lookup/miss counters, so registrars can classify fresh binds vs
        refreshes without perturbing the gauges the harness reads.
        """
        for binding in self._bindings.get(self._key(aor), []):
            if binding.node == node:
                return True
        return False

    def lookup(self, aor: str, now: float = 0.0) -> Optional[Binding]:
        """First live binding for an AOR, or None (counts as a miss)."""
        self.lookups += 1
        key = self._key(aor)
        for binding in self._bindings.get(key, []):
            if not binding.is_expired(now):
                return binding
        self.misses += 1
        return None

    def bindings_for(self, aor: str) -> List[Binding]:
        return list(self._bindings.get(self._key(aor), []))

    @property
    def size(self) -> int:
        return sum(len(bucket) for bucket in self._bindings.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LocationService {self.name} aors={len(self._bindings)}>"
