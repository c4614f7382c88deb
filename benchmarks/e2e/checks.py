"""Output checks: fingerprints, call conservation, operation accounting.

An *operation* is one timed run of a workload or one cross-check run.
It fails if it raises, breaks determinism (its fingerprint differs from
the first run's), breaks its cross-check (``chain_wire`` vs turbo,
``mesh_sharded`` vs turbo, warm replay vs cold sweep) or breaks call
conservation.  ``failed_share`` is failed / attempted operations.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict, List, Optional


def fingerprint(payloads, events: int, registries=None) -> str:
    """SHA-256 over the canonical JSON of everything a run reports.

    ``payloads`` is one ``RunResult.to_payload()`` or a list of them,
    ``events`` the loop's event count, ``registries`` the per-node
    ``metrics.snapshot()`` dicts where the scenario object is in hand.
    """
    document = {"payloads": payloads, "events": events,
                "registries": registries}
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def registry_snapshots(scenario) -> Dict[str, object]:
    """Every node's metrics, as ``harness/bench.py`` snapshots them."""
    snaps: Dict[str, object] = {}
    for name, proxy in sorted(scenario.proxies.items()):
        snaps[name] = proxy.metrics.snapshot()
    for generator in scenario.generators:
        snaps[f"uac:{generator.name}"] = generator.metrics.snapshot()
    for server in scenario.servers:
        snaps[f"uas:{server.name}"] = server.metrics.snapshot()
    return snaps


def conserves_calls(scenario) -> bool:
    """No generator completed or failed more calls than it attempted."""
    return all(
        g.calls_attempted >= g.calls_completed + g.calls_failed
        for g in scenario.generators
    )


class Ledger:
    """Counts attempted and failed operations and says why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._first: Optional[str] = None

    def record(self, label: str, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(f"{label}: {reason}")
            print(f"[e2e] FAILED {label}: {reason}", file=sys.stderr)
        return ok

    def record_run(self, label: str, observed: Optional[dict],
                   error: str = "") -> bool:
        """One timed run: it ran, the workload found no problem with its
        output, and it repeated the first run."""
        if observed is None:
            return self.record(label, False, error or "raised")
        if observed["problems"]:
            return self.record(label, False, "; ".join(observed["problems"]))
        if self._first is None:
            self._first = observed["fingerprint"]
        if observed["fingerprint"] != self._first:
            return self.record(label, False, "fingerprint differs from "
                               "the first run's (determinism broken)")
        return self.record(label, True)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
