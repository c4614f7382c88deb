"""Stable public API for the SERvartuka reproduction.

This facade is the supported way to drive the toolkit from Python.  It
is a thin, keyword-only layer over the internals (``repro.workloads``,
``repro.harness``, ``repro.obs``) with one property the internals do
not promise: **the names exported here are stable** -- they are pinned
by ``tests/api_surface.txt`` and CI fails when the surface drifts.

Everything composes in one place:

- ``engine=`` picks the simulation engine: ``"turbo"`` (the default)
  or the wire-faithful ``"reference"`` oracle -- bit-identical, only
  wall-clock differs -- or, layered on turbo, ``"sharded"`` (one run
  across ``shards=`` event loops),
- ``observe=`` attaches the :mod:`repro.obs` observability layer
  (``"cpu,telemetry,spans"`` or an :class:`ObserveConfig`),
- ``jobs=`` / ``cache=`` fan independent runs across worker processes
  and keep them in the content-addressed run cache,
- ``faults=`` injects a :class:`FaultSchedule` into a single run,
- ``control=`` attaches an overload-control policy
  (``"rate"``/``"window"``/``"occupancy"``/``"signal"`` or a
  :class:`ControlConfig`) to every proxy,
- ``spec=`` runs a declarative scenario spec (a
  :class:`ScenarioSpec`, its dict, or a ``.toml``/``.json`` path).

Which run a call denotes is resolved in one place,
:func:`repro.workloads.spec.resolve`, under one rule -- explicit
argument > spec document > default, ``None`` meaning "not given" -- so
``api.run_scenario(spec=f)``, ``repro run --spec f`` and
``ScenarioSpec.from_path(f).run_spec()`` are the same run (docs/API.md
has the defaults of each door).

Quickstart::

    from repro import api

    result = api.run_scenario("n_series", rate=9000, n=2,
                              policy="servartuka", observe="cpu")
    print(result.throughput_cps, result.obs["profiles"]["P1"])

    sweep = api.sweep("single_proxy", loads=[8000, 10000, 12000],
                      mode="stateless", jobs=4)
    print(sweep.max_throughput)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro import _lazy_exports
from repro.harness.parallel import (
    SCENARIO_BUILDERS,
    execution,
    run_specs,
    scenario_job,
)
from repro.harness.runner import RunResult
from repro.workloads.scenarios import (
    Scenario,
    ScenarioConfig,
    UnsupportedCombination,
)
from repro.workloads.spec import ScenarioSpec, resolve

if TYPE_CHECKING:
    from repro.core.control import ControlConfig
    from repro.core.lp import LPSolution
    from repro.core.topogen import GeneratedTopology
    from repro.core.topology import Topology
    from repro.harness.figures import FULL, QUICK, STANDARD, FigureData, Quality
    from repro.harness.saturation import SweepResult
    from repro.obs.observe import ObserveConfig
    from repro.sim.faults import FaultSchedule

#: Names of the pinned surface that live in modules a plain run does not
#: need (the figure pipeline, the LP, the topology generator, overload
#: control, observability, faults): name -> defining
#: module, imported on first access.  The functions below import the
#: same modules where they use them.
_EXPORTS = {
    "FULL": "repro.harness.figures",
    "QUICK": "repro.harness.figures",
    "STANDARD": "repro.harness.figures",
    "ControlConfig": "repro.core.control",
    "FaultSchedule": "repro.sim.faults",
    "FigureData": "repro.harness.figures",
    "GeneratedTopology": "repro.core.topogen",
    "LPSolution": "repro.core.lp",
    "ObserveConfig": "repro.obs.observe",
    "Quality": "repro.harness.figures",
    "SweepResult": "repro.harness.saturation",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = [
    "FULL",
    "QUICK",
    "STANDARD",
    "TOPOLOGIES",
    "ControlConfig",
    "FaultSchedule",
    "FigureData",
    "GeneratedTopology",
    "LPSolution",
    "ObserveConfig",
    "Quality",
    "RunResult",
    "Scenario",
    "ScenarioConfig",
    "ScenarioSpec",
    "SweepResult",
    "UnsupportedCombination",
    "experiments",
    "find_capacity",
    "generate_topology",
    "make_scenario",
    "run_experiment",
    "run_scenario",
    "solve_topology",
    "sweep",
]

#: Topology names accepted by :func:`run_scenario` / :func:`sweep` /
#: :func:`find_capacity`; extra keyword arguments are forwarded to the
#: matching builder in :mod:`repro.workloads.scenarios`.
TOPOLOGIES = tuple(sorted(SCENARIO_BUILDERS))


@contextmanager
def _maybe_execution(jobs, cache, cache_dir):
    """Install an execution context when any knob is given; otherwise
    inherit whatever ``repro.harness.parallel.execution`` is ambient."""
    if jobs is None and cache is None and cache_dir is None:
        yield None
        return
    with execution(
        jobs=max(1, jobs if jobs is not None else 1),
        use_cache=True if cache is None else bool(cache),
        cache_dir=cache_dir,
    ) as context:
        yield context


def make_scenario(
    topology: Optional[str] = None,
    *,
    rate: float,
    config: Union[None, ScenarioConfig, str, dict] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
    observe: Union[None, bool, str, ObserveConfig] = None,
    control: Union[None, str, ControlConfig] = None,
    shards: Optional[int] = None,
    **kwargs,
) -> Scenario:
    """Build a live :class:`Scenario` without running it.

    For custom drives (time-varying load, mid-run inspection).  Most
    callers want :func:`run_scenario` instead.
    """
    return resolve(
        topology, rate=rate, config=config, scale=scale, seed=seed,
        engine=engine, observe=observe, control=control, shards=shards,
        params=kwargs,
    ).build()


def run_scenario(
    topology: Optional[str] = None,
    *,
    spec: Union[None, str, dict, ScenarioSpec] = None,
    rate: Optional[float] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    drain: Optional[float] = None,
    config: Union[None, ScenarioConfig, str, dict] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
    observe: Union[None, bool, str, ObserveConfig] = None,
    control: Union[None, str, ControlConfig] = None,
    shards: Optional[int] = None,
    faults: Optional[FaultSchedule] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    **kwargs,
) -> RunResult:
    """Run one (topology, offered load) point and measure it.

    Returns a :class:`RunResult`; when ``observe=`` is set the result
    additionally carries the observability snapshot as ``result.obs``
    (the JSON-able dict of :meth:`repro.obs.observe.Observer.snapshot`),
    when ``control=`` is set the overload-control snapshot (per-proxy
    stats + decision traces) as ``result.control``, and when
    ``engine="sharded"`` the shard accounting (window count,
    cross-shard message volume) as ``result.sharded``.

    ``spec=`` takes a :class:`ScenarioSpec`, its document dict, or a
    ``.toml``/``.json`` file path; it supplies the topology, builder
    parameters, config, label, rate and run window, and every explicit
    argument overrides the spec's value.  ``api.run_scenario(spec=f)``
    is equivalent to ``repro run --spec f`` and to spelling the same
    run out programmatically -- all three hand the executor one
    ``RunSpec``: one cache key, one label.

    Fault-free runs route through the parallel executor's job path, so
    they participate in the ambient run cache (or the one ``cache=`` /
    ``cache_dir=`` requests); a run with ``faults=`` executes inline.
    """
    run = resolve(
        topology, spec=spec, rate=rate, duration=duration, warmup=warmup,
        drain=drain, config=config, scale=scale, seed=seed, engine=engine,
        observe=observe, control=control, shards=shards, params=kwargs,
    )
    if run.rate is None:
        raise TypeError("run_scenario() needs rate= (or a spec= with "
                        "a [load] section)")
    if faults is not None:
        scenario = run.build()
        scenario.install_faults(faults)
        return RunResult.from_job(scenario_job(
            scenario, duration=run.duration, warmup=run.warmup,
            drain=run.drain))
    with _maybe_execution(None, cache, cache_dir):
        return RunResult.from_job(run_specs([run.run_spec()])[0])


def sweep(
    topology: Optional[str] = None,
    *,
    loads: Sequence[float],
    spec: Union[None, str, dict, ScenarioSpec] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    label: Optional[str] = None,
    config: Union[None, ScenarioConfig, str, dict] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
    observe: Union[None, bool, str, ObserveConfig] = None,
    control: Union[None, str, ControlConfig] = None,
    shards: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    **kwargs,
) -> SweepResult:
    """Run one fresh scenario per offered load (the paper's methodology).

    ``spec=`` and the explicit arguments resolve as they do for
    :func:`run_scenario` (``loads`` takes the place of the rate).
    ``jobs=`` fans the load points across worker processes and
    ``cache=`` stores each point on disk; neither changes a metric.
    """
    from repro.harness import saturation

    run = resolve(
        topology, spec=spec, duration=duration, warmup=warmup, label=label,
        config=config, scale=scale, seed=seed, engine=engine,
        observe=observe, control=control, shards=shards, params=kwargs,
    )
    with _maybe_execution(jobs, cache, cache_dir):
        return saturation.sweep_loads(
            run.template(), loads, duration=run.duration,
            warmup=run.warmup, label=run.label)


def find_capacity(
    topology: Optional[str] = None,
    *,
    hint: Optional[float] = None,
    spec: Union[None, str, dict, ScenarioSpec] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    span: float = 0.35,
    points: int = 6,
    refine: bool = True,
    label: Optional[str] = None,
    config: Union[None, ScenarioConfig, str, dict] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
    observe: Union[None, bool, str, ObserveConfig] = None,
    control: Union[None, str, ControlConfig] = None,
    shards: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    **kwargs,
) -> SweepResult:
    """Saturation search around a capacity ``hint`` (paper cps).

    ``hint=None`` seeds the search from the scenario's own LP bound
    (:func:`solve_topology` on ``make_scenario(...).topology``); the
    hand-wired builders (``single_proxy``, ``register_churn``,
    ``b2bua_chain``) have no topology and need an explicit ``hint=``.
    """
    from repro.harness import saturation

    run = resolve(
        topology, spec=spec, duration=duration, warmup=warmup, label=label,
        config=config, scale=scale, seed=seed, engine=engine,
        observe=observe, control=control, shards=shards, params=kwargs,
    )
    with _maybe_execution(jobs, cache, cache_dir):
        return saturation.find_capacity(
            run.template(), hint, duration=run.duration, warmup=run.warmup,
            span=span, points=points, label=run.label, refine=refine)


def generate_topology(
    family: str = "chain",
    *,
    size: int,
    seed: int = 1,
    heterogeneity: float = 0.0,
    **params,
) -> GeneratedTopology:
    """Generate a seeded cluster topology (see :mod:`repro.core.topogen`).

    ``family`` is ``"chain"``, ``"tree"`` or ``"mesh"``; ``size`` the
    proxy count (a floor for meshes); ``heterogeneity`` the node-speed
    spread (0 = homogeneous).  Extra keywords (``external_share``,
    ``fanout``, ``chain_depth``) parameterize the family.  The result's
    :meth:`~repro.core.topogen.GeneratedTopology.spec` round-trips
    through :func:`run_scenario`-style keywords via the ``"generated"``
    topology builder::

        gen = api.generate_topology("mesh", size=51, heterogeneity=0.3)
        bound = gen.oracle().throughput
        result = api.run_scenario("generated", rate=bound, **gen.spec())
    """
    from repro.core.topogen import generate

    return generate(
        family, size, seed=seed, heterogeneity=heterogeneity, **params
    )


def solve_topology(
    topology: Union[Topology, GeneratedTopology],
    *,
    free_routing: bool = False,
) -> LPSolution:
    """Solve the section 4.1 LP for a topology.

    Accepts a raw :class:`Topology` or a :class:`GeneratedTopology`
    (whose per-flow hop penalties are applied automatically in the
    fixed-routing case).
    """
    from repro.harness import saturation

    return saturation.solve_topology(topology, free_routing=free_routing)


def experiments() -> Dict[str, str]:
    """Available experiment ids mapped to one-line descriptions."""
    from repro.harness.experiments import EXPERIMENTS

    return {name: description for name, (_fn, description) in EXPERIMENTS.items()}


def run_experiment(
    experiment: str,
    *,
    quality: Union[str, Quality] = "quick",
    engine: Optional[str] = None,
    observe: Union[None, bool, str, ObserveConfig] = None,
    control: Union[None, str, ControlConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> FigureData:
    """Reproduce one paper figure/table (see :func:`experiments`)."""
    from repro.harness.experiments import ExperimentSuite
    from repro.harness.figures import QUALITIES

    if isinstance(quality, str):
        if quality not in QUALITIES:
            raise ValueError(
                f"unknown quality {quality!r}; one of {sorted(QUALITIES)}"
            )
        quality = QUALITIES[quality]
    quality = quality.with_overrides(engine=engine, observe=observe,
                                     control=control)
    suite = ExperimentSuite(quality)
    with _maybe_execution(jobs, cache, cache_dir):
        results = suite.run([experiment])
    return results[experiment]
