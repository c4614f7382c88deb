"""Observability configuration and the per-scenario Observer.

``ScenarioConfig(observe=...)`` accepts anything
:meth:`ObserveConfig.coerce` understands:

- ``None`` / ``False`` -- observability fully off (the default; the
  simulation runs exactly the pre-observability code path),
- ``True`` or ``"all"`` -- CPU profiling + control telemetry + spans,
- a comma-separated subset string, e.g. ``"cpu,telemetry"``,
- an :class:`ObserveConfig` instance or its payload dict.

When enabled, the :class:`Observer` owns every recorder for the run:
one :class:`~repro.obs.profile.CpuProfiler` per proxy, one
:class:`~repro.obs.telemetry.ControlTelemetry` per SERvartuka policy,
and (for spans) the scenario's message trace.  ``Observer.snapshot()``
is the single JSON-able export the CLI and the parallel executor ship.

Contract (bench-gated, see docs/ARCHITECTURE.md): with observability
disabled no hook body runs -- each instrumentation point is a single
``is not None`` test on an attribute that defaults to ``None`` -- and
no recorder ever writes to a metrics registry, so enabling
observability changes no compared metric either.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.profile import CpuProfiler
from repro.obs.telemetry import ControlTelemetry, OverloadControlTelemetry

_PARTS = ("cpu", "telemetry", "spans")


class ObserveConfig:
    """Which observability subsystems a scenario enables."""

    __slots__ = ("cpu", "telemetry", "spans", "trace_max_entries",
                 "trace_sample_every")

    def __init__(
        self,
        *,
        cpu: bool = True,
        telemetry: bool = True,
        spans: bool = False,
        trace_max_entries: int = 100_000,
        trace_sample_every: int = 1,
    ):
        if not (cpu or telemetry or spans):
            raise ValueError(
                "ObserveConfig with everything off; use observe=None instead"
            )
        self.cpu = cpu
        self.telemetry = telemetry
        self.spans = spans
        self.trace_max_entries = trace_max_entries
        self.trace_sample_every = trace_sample_every

    # ------------------------------------------------------------------
    # Coercion from the user-facing spellings
    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> Optional["ObserveConfig"]:
        """Normalize any accepted ``observe=`` spelling; ``None`` = off."""
        if value is None or value is False:
            return None
        if value is True:
            return cls(cpu=True, telemetry=True, spans=True)
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls.from_payload(value)
        raise TypeError(
            f"observe= accepts None/bool/str/dict/ObserveConfig, "
            f"not {type(value).__name__}"
        )

    @classmethod
    def parse(cls, spec: str) -> Optional["ObserveConfig"]:
        """Parse ``"all"``, ``"none"`` or a comma list of parts."""
        text = spec.strip().lower()
        if text in ("", "none", "off"):
            return None
        if text == "all":
            return cls(cpu=True, telemetry=True, spans=True)
        parts = [p.strip() for p in text.split(",") if p.strip()]
        unknown = [p for p in parts if p not in _PARTS]
        if unknown:
            raise ValueError(
                f"unknown observe parts {unknown}; "
                f"choose from {list(_PARTS)}, 'all' or 'none'"
            )
        return cls(
            cpu="cpu" in parts,
            telemetry="telemetry" in parts,
            spans="spans" in parts,
        )

    # ------------------------------------------------------------------
    # Payload round-trip (participates in the run-cache hash)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        return {
            "cpu": self.cpu,
            "telemetry": self.telemetry,
            "spans": self.spans,
            "trace_max_entries": self.trace_max_entries,
            "trace_sample_every": self.trace_sample_every,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ObserveConfig":
        return cls(
            cpu=bool(payload.get("cpu", True)),
            telemetry=bool(payload.get("telemetry", True)),
            spans=bool(payload.get("spans", False)),
            trace_max_entries=int(payload.get("trace_max_entries", 100_000)),
            trace_sample_every=int(payload.get("trace_sample_every", 1)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObserveConfig):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        on = [p for p in _PARTS if getattr(self, p)]
        return f"<ObserveConfig {'+'.join(on)}>"


class Observer:
    """All recorders for one scenario run."""

    def __init__(self, config: ObserveConfig):
        self.config = config
        self.profilers: Dict[str, CpuProfiler] = {}
        self.telemetries: Dict[str, ControlTelemetry] = {}
        self.controls: Dict[str, OverloadControlTelemetry] = {}
        self.trace = None  # set by Scenario when spans are enabled

    # ------------------------------------------------------------------
    # Recorder factories (called while the scenario wires its nodes)
    # ------------------------------------------------------------------
    def profiler_for(self, node: str) -> Optional[CpuProfiler]:
        if not self.config.cpu:
            return None
        if node not in self.profilers:
            self.profilers[node] = CpuProfiler(node)
        return self.profilers[node]

    def telemetry_for(self, node: str,
                      resource: str = "state") -> Optional[ControlTelemetry]:
        if not self.config.telemetry:
            return None
        key = node if resource == "state" else f"{node}/{resource}"
        if key not in self.telemetries:
            self.telemetries[key] = ControlTelemetry(node, resource)
        return self.telemetries[key]

    def control_for(self, node: str) -> Optional[OverloadControlTelemetry]:
        """Overload-control decision recorder (repro.core.control)."""
        if not self.config.telemetry:
            return None
        if node not in self.controls:
            self.controls[node] = OverloadControlTelemetry(node)
        return self.controls[node]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def spans(self) -> Dict[str, object]:
        """Span trees per call (requires spans enabled and a trace)."""
        if self.trace is None:
            return {}
        from repro.obs.spans import spans_by_call

        return spans_by_call(self.trace)

    def snapshot(self) -> Dict[str, object]:
        """The complete JSON-able observability export for the run."""
        snapshot: Dict[str, object] = {
            "config": self.config.to_payload(),
            "profiles": {
                name: profiler.snapshot()
                for name, profiler in sorted(self.profilers.items())
            },
            "telemetry": {
                key: telemetry.snapshot()
                for key, telemetry in sorted(self.telemetries.items())
            },
        }
        if self.controls:
            # Key present only when a controller actually attached, so
            # observe-on/control-off snapshots are unchanged by this PR.
            snapshot["control"] = {
                name: recorder.snapshot()
                for name, recorder in sorted(self.controls.items())
            }
        if self.config.spans and self.trace is not None:
            snapshot["spans"] = {
                call_id: span.to_payload()
                for call_id, span in self.spans().items()
            }
        return snapshot
