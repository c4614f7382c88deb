"""Declarative scenario DSL: a spec file is a complete, runnable run.

A *scenario spec* pins everything one simulation run needs -- builder,
builder parameters, :class:`~repro.workloads.scenarios.ScenarioConfig`
knobs, offered load and run window -- in a JSON-able document that can
live in a TOML or JSON file, hash into the run cache, and rebuild
identically inside parallel workers::

    [scenario]
    builder = "register_churn"
    label = "churn-tiny"

    [scenario.params]
    subscribers = 50
    auth = "digest"

    [config]
    scale = 200.0
    seed = 3

    [load]
    rate = 2000.0

    [run]
    duration = 6.0
    warmup = 2.0

Four sections:

- ``[scenario]`` -- ``builder`` (one of the registered scenario
  builders), optional ``label`` (display only, never hashed) and a
  ``params`` sub-table of builder keyword arguments;
- ``[config]`` -- any subset of the
  :meth:`ScenarioConfig.to_payload` keys (missing knobs take
  constructor defaults);
- ``[load]`` -- ``rate`` in paper-equivalent calls/second;
- ``[run]`` -- ``duration`` / ``warmup`` / ``drain`` seconds.

``ScenarioSpec.from_toml`` / ``from_json`` / ``from_path`` parse one.

:func:`resolve` is the one place a run is resolved, for every door --
``repro run --spec f``, ``api.run_scenario(spec=f)`` and
``ScenarioSpec.from_path(f).run_spec()`` -- under one rule: **explicit
argument > spec document > default, and ``None`` means not given**.  It
returns a :class:`ResolvedRun`, whose :meth:`~ResolvedRun.run_spec` is
the parallel executor's :class:`~repro.harness.parallel.RunSpec` (one
cache key and one label whichever door was used) and whose
:meth:`~ResolvedRun.build` wires the live scenario.
"""

from __future__ import annotations

import json
import math
from typing import Dict, NamedTuple, Optional

from repro.harness.parallel import SCENARIO_BUILDERS, RunSpec, SpecTemplate
from repro.workloads.scenarios import Scenario, ScenarioConfig

_SECTIONS = ("scenario", "config", "load", "run")
_SCENARIO_KEYS = ("builder", "label", "params")
_LOAD_KEYS = ("rate",)
_RUN_KEYS = ("duration", "warmup", "drain")

#: Builder parameters the spec manages itself; a params table naming
#: one of these is a mistake (the value would be silently shadowed).
_RESERVED_PARAMS = ("rate", "config")


def _reject_unknown(section: str, payload: Dict[str, object], allowed) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key(s) in [{section}]: {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}"
        )


class ScenarioSpec:
    """One fully-pinned run: builder + params + config + load + window."""

    def __init__(
        self,
        builder: str,
        rate: float,
        params: Optional[Dict[str, object]] = None,
        config: Optional[Dict[str, object]] = None,
        label: str = "",
        duration: float = 10.0,
        warmup: float = 4.0,
        drain: float = 0.0,
    ):
        if builder not in SCENARIO_BUILDERS:
            raise ValueError(
                f"unknown scenario builder {builder!r}; "
                f"one of {sorted(SCENARIO_BUILDERS)}"
            )
        for name, value in (("rate", rate), ("duration", duration)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive: {value}")
        for name, value in (("warmup", warmup), ("drain", drain)):
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be finite and non-negative: {value}")
        params = dict(params or {})
        reserved = sorted(set(params) & set(_RESERVED_PARAMS))
        if reserved:
            raise ValueError(
                f"params must not set {', '.join(reserved)}; use the "
                "[load] section for rate and [config] for config knobs"
            )
        config = dict(config) if config else None
        if config is not None:
            # Fail fast on bad knobs (unknown keys, bad engine names)
            # at parse time, not inside a worker process.
            ScenarioConfig.from_payload(config)
        self.builder = builder
        self.rate = float(rate)
        self.params = params
        self.config = config
        self.label = label or builder
        self.duration = float(duration)
        self.warmup = float(warmup)
        self.drain = float(drain)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Build from the four-section document (parsed TOML/JSON)."""
        if not isinstance(payload, dict):
            raise TypeError(f"spec document must be a dict, not "
                            f"{type(payload).__name__}")
        _reject_unknown("<document>", payload, _SECTIONS)
        scenario = payload.get("scenario")
        if not isinstance(scenario, dict) or "builder" not in scenario:
            raise ValueError("spec needs a [scenario] section with a "
                             "'builder' key")
        _reject_unknown("scenario", scenario, _SCENARIO_KEYS)
        load = payload.get("load")
        if not isinstance(load, dict) or "rate" not in load:
            raise ValueError("spec needs a [load] section with a 'rate' key")
        _reject_unknown("load", load, _LOAD_KEYS)
        run = payload.get("run") or {}
        if not isinstance(run, dict):
            raise ValueError("[run] must be a table")
        _reject_unknown("run", run, _RUN_KEYS)
        config = payload.get("config")
        if config is not None and not isinstance(config, dict):
            raise ValueError("[config] must be a table")
        params = scenario.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("[scenario.params] must be a table")
        return cls(
            builder=scenario["builder"],
            rate=load["rate"],
            params=params,
            config=config,
            label=scenario.get("label", ""),
            duration=run.get("duration", 10.0),
            warmup=run.get("warmup", 4.0),
            drain=run.get("drain", 0.0),
        )

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        import tomllib

        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_path(cls, path) -> "ScenarioSpec":
        """Load a ``.toml`` or ``.json`` spec file."""
        import os

        text = open(path, "r", encoding="utf-8").read()
        suffix = os.path.splitext(str(path))[1].lower()
        if suffix == ".json":
            return cls.from_json(text)
        if suffix == ".toml":
            return cls.from_toml(text)
        raise ValueError(
            f"cannot tell the format of {path!r}: expected a .toml or "
            ".json file"
        )

    @classmethod
    def coerce(cls, value) -> "ScenarioSpec":
        """Accept a :class:`ScenarioSpec`, a document dict, or a file path."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            return cls.from_path(value)
        raise TypeError(
            "spec must be a ScenarioSpec, a document dict or a file "
            f"path, not {type(value).__name__}"
        )

    # ------------------------------------------------------------------
    # Round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The four-section document back (``from_dict`` round-trips)."""
        scenario: Dict[str, object] = {"builder": self.builder}
        if self.label != self.builder:
            scenario["label"] = self.label
        if self.params:
            scenario["params"] = dict(self.params)
        document: Dict[str, object] = {"scenario": scenario}
        if self.config is not None:
            document["config"] = dict(self.config)
        document["load"] = {"rate": self.rate}
        document["run"] = {
            "duration": self.duration,
            "warmup": self.warmup,
            "drain": self.drain,
        }
        return document

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Execution plumbing: all of it through resolve()
    # ------------------------------------------------------------------
    def run_spec(self, **given) -> RunSpec:
        """The executor :class:`~repro.harness.parallel.RunSpec` of this
        document with the ``given`` arguments of :func:`resolve` applied."""
        return resolve(spec=self, **given).run_spec()

    def build(self, **given) -> Scenario:
        """Wire the live :class:`~repro.workloads.scenarios.Scenario`."""
        return resolve(spec=self, **given).build()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return (
            self.builder == other.builder
            and self.rate == other.rate
            and self.params == other.params
            and self.config == other.config
            and self.label == other.label
            and self.duration == other.duration
            and self.warmup == other.warmup
            and self.drain == other.drain
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ScenarioSpec({self.builder!r}, rate={self.rate:.0f}, "
            f"params={self.params!r})"
        )


class ResolvedRun(NamedTuple):
    """What :func:`resolve` returns: one run with nothing left open
    (but ``rate``, which a sweep supplies per point)."""

    builder: str
    params: Dict[str, object]
    config: ScenarioConfig
    label: str
    rate: Optional[float]
    duration: float
    warmup: float
    drain: float

    def template(self) -> SpecTemplate:
        """The load-open template a sweep closes once per point."""
        return SpecTemplate(
            self.builder, self.config, label=self.label, **self.params
        )

    def run_spec(self) -> RunSpec:
        return self.template().at(
            self.rate, self.duration, self.warmup, self.drain
        )

    def build(self) -> Scenario:
        # All-keyword call, as the executor's build_scenario makes it:
        # some builders (n_series) take an argument before rate.
        return SCENARIO_BUILDERS[self.builder](
            rate=self.rate, config=self.config, **self.params
        )


def _first(*values):
    """The first value that was given (is not ``None``), else ``None``."""
    return next((value for value in values if value is not None), None)


def resolve(
    topology: Optional[str] = None,
    *,
    spec=None,
    rate: Optional[float] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    drain: Optional[float] = None,
    label: Optional[str] = None,
    config=None,
    params: Optional[Dict[str, object]] = None,
    **knobs,
) -> ResolvedRun:
    """Resolve one run: explicit argument > spec document > default.

    ``spec`` is anything :meth:`ScenarioSpec.coerce` takes, ``config``
    anything :meth:`ScenarioConfig.coerce` takes, ``params`` the
    builder's keyword arguments (merged over the document's) and
    ``knobs`` single :class:`ScenarioConfig` fields (``seed=5``) applied
    on top of whichever config won.  ``None`` means "not given"
    everywhere.
    """
    # No spec is a document that says nothing.
    said = ({} if spec is None else vars(ScenarioSpec.coerce(spec))).get
    builder = _first(topology, said("builder"), "single_proxy")
    if builder not in SCENARIO_BUILDERS:
        raise ValueError(
            f"unknown topology {builder!r}; one of {sorted(SCENARIO_BUILDERS)}"
        )
    return ResolvedRun(
        builder=builder,
        params=dict(said("params") or {}, **(params or {})),
        config=ScenarioConfig.coerce(
            _first(config, said("config"))).replace(**knobs),
        label=_first(label or None, said("label"), builder),
        rate=_first(rate, said("rate")),
        duration=_first(duration, said("duration"), 10.0),
        warmup=_first(warmup, said("warmup"), 4.0),
        drain=_first(drain, said("drain"), 0.0),
    )
