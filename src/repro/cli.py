"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figures [ids...]`` -- regenerate paper tables/figures
  (``fig3 fig4 lp fig5 fig6 fig7 fig8 three-series resilience overload
  optgap`` or ``all``),
- ``sweep`` -- throughput sweep of one topology/policy,
- ``run`` -- a single load point with full measurement detail,
- ``lp`` -- solve the state-distribution LP for a topology described
  in a small JSON file (``--backend`` picks scipy or the pure-python
  simplex),
- ``topogen`` -- generate a seeded cluster topology (chain, tree or
  multi-domain mesh), solve its LP oracle and optionally dump it as
  ``lp``-loadable JSON,
- ``trace`` -- simulate a few calls and print their ladder diagrams,
- ``obs`` -- run one load point with the observability layer attached
  and report the per-functionality CPU profile, control-loop telemetry
  and (optionally) per-call spans; exportable as JSON/CSV,
- ``cache`` -- inspect or clear the on-disk run cache.

The simulation-heavy commands (``figures``, ``experiments``, ``sweep``,
``run``) accept ``--jobs/-j N`` to fan independent runs
across worker processes and use a content-addressed run cache under
``.repro-cache/`` (disable with ``--no-cache``); neither changes a
single reported metric.  Scenario-building commands accept
``--engine`` (simulation engine), ``--observe`` (attach the
:mod:`repro.obs` recorders; changes no metric) and ``--control``
(attach an overload-control policy from :mod:`repro.core.control` to
every proxy).  ``run`` and ``sweep`` additionally accept ``--spec
FILE``: a declarative TOML/JSON scenario spec
(:mod:`repro.workloads.spec`) supplying the topology, builder
parameters, config, load and run window; explicit flags override the
file's values.

All loads are paper-equivalent calls/second.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.harness.report import format_table, render_figure
from repro.sip.message import ENGINES, check_engine

# Each command imports what it runs inside its handler: ``repro --help``
# and ``repro cache`` build no simulator, and a spawned pool worker
# (which re-imports this module as ``__main__``) loads only the run
# path, not the figure pipeline, the LP or the topology generator.
if TYPE_CHECKING:
    from repro.core.topology import Topology
    from repro.harness.parallel import SpecTemplate
    from repro.workloads.scenarios import ScenarioConfig

#: ``--quality`` choices: the keys of ``harness.figures.QUALITIES``.
QUALITY_NAMES = ("full", "quick", "standard")


def _scenario_config(args, **overrides) -> ScenarioConfig:
    from repro.workloads.scenarios import ScenarioConfig

    kwargs = dict(
        scale=args.scale if args.scale is not None else 25.0,
        seed=args.seed if args.seed is not None else 1,
        engine=getattr(args, "engine", None) or "turbo",
        observe=getattr(args, "observe", None),
        control=getattr(args, "control", None),
        shards=getattr(args, "shards", None),
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def _build_scenario(args) -> object:
    from repro.workloads.scenarios import (
        internal_external,
        n_series,
        parallel_fork,
        single_proxy,
    )

    config = _scenario_config(args)
    if args.topology == "single":
        return single_proxy(args.rate, mode=args.mode, config=config)
    if args.topology == "series":
        return n_series(args.nodes, args.rate, policy=args.policy,
                        config=config, auth=args.auth)
    if args.topology == "mix":
        return internal_external(args.rate, args.external_fraction,
                                 policy=args.policy, config=config)
    if args.topology == "fork":
        return parallel_fork(args.rate, policy=args.policy, config=config)
    raise ValueError(f"unknown topology {args.topology!r}")


def _parallel_parent() -> argparse.ArgumentParser:
    """Shared ``--jobs``/``--cache`` flags: defined once, inherited by
    every command that fans runs across workers (argparse ``parents=``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for independent runs "
             "(default: os.cpu_count())",
    )
    parent.add_argument(
        "--force-jobs", action="store_true",
        help="allow --jobs above os.cpu_count() instead of clamping",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk run cache",
    )
    parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run cache location (default: .repro-cache, "
             "or $REPRO_CACHE_DIR)",
    )
    return parent


def _execution(args):
    """The ``execution()`` context the parallel flags describe."""
    from repro.harness.parallel import execution

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    return execution(
        jobs=max(1, jobs),
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=True,
        force=getattr(args, "force_jobs", False),
    )


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="series",
                        choices=["single", "series", "mix", "fork"])
    parser.add_argument("--nodes", type=int, default=2,
                        help="chain length for --topology series")
    parser.add_argument("--policy", default="servartuka",
                        choices=["servartuka", "static", "static-one",
                                 "stateless", "stateful"])
    parser.add_argument("--mode", default="transaction_stateful",
                        help="functionality mode for --topology single")
    parser.add_argument("--auth", default="none",
                        choices=["none", "entry", "distributed"])
    parser.add_argument("--external-fraction", type=float, default=0.8,
                        help="external share for --topology mix")
    parser.add_argument("--scale", type=float, default=None,
                        help="cost scale factor (capacity divisor; "
                             "default 25)")
    parser.add_argument("--seed", type=int, default=None)


def _engine_name(value: str) -> str:
    """``--engine`` values fail with the library's own one-line message
    (it names turbo as the replacement of the removed rungs)."""
    try:
        return check_engine(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _engine_parent() -> argparse.ArgumentParser:
    """Shared ``--engine``/``--observe``/``--control`` flags: one
    definition inherited by every scenario-building command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--engine", default=None, type=_engine_name,
                        choices=ENGINES,
                        help="simulation engine (default: turbo; "
                             "reference is its wire-faithful, "
                             "bit-identical oracle, hybrid "
                             "fast-forwards steady state within "
                             "tolerance, sharded partitions one run "
                             "across worker processes)")
    parent.add_argument("--shards", type=int, default=None, metavar="N",
                        help="shard count for --engine sharded "
                             "(default: 1)")
    parent.add_argument("--observe", default=None, metavar="SPEC",
                        help="attach the observability layer: 'all' or "
                             "a comma list of cpu,telemetry,spans "
                             "(default: off; changes no metric)")
    parent.add_argument("--control", default=None,
                        choices=["none", "rate", "window", "occupancy",
                                 "signal"],
                        help="overload-control policy on every proxy "
                             "(default: off)")
    return parent


def _spec_parent() -> argparse.ArgumentParser:
    """The ``--spec`` flag, defined once (run and sweep inherit it)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--spec", default=None, metavar="FILE",
        help="declarative scenario spec (.toml or .json); supplies the "
             "topology, builder params, config, load and run window -- "
             "explicit flags (--rate, --engine, ...) override it and "
             "the --topology/--policy/... flags are ignored",
    )
    return parent


def _spec_template(args):
    """Template + (rate, duration, warmup, drain) from ``--spec``,
    with explicit CLI flags overriding the file's values."""
    from repro.harness.parallel import SpecTemplate
    from repro.workloads.scenarios import ScenarioConfig
    from repro.workloads.spec import ScenarioSpec

    spec = ScenarioSpec.coerce(args.spec)
    config = dict(spec.config or {})
    if args.scale is not None:
        config["scale"] = args.scale
    if args.seed is not None:
        config["seed"] = args.seed
    if getattr(args, "engine", None):
        config["engine"] = args.engine
    if getattr(args, "observe", None):
        config["observe"] = args.observe
    if getattr(args, "control", None):
        config["control"] = args.control
    if getattr(args, "shards", None) is not None:
        config["shards"] = args.shards
    template = SpecTemplate(
        spec.builder, ScenarioConfig.from_payload(config),
        label=spec.label, **spec.params,
    )
    rate = getattr(args, "rate", None)
    return (
        template,
        spec.rate if rate is None else rate,
        spec.duration if args.duration is None else args.duration,
        spec.warmup if args.warmup is None else args.warmup,
        spec.drain,
    )


def _quality(args):
    """The ``--quality`` preset with the engine flags applied."""
    from repro.harness.figures import QUALITIES

    return QUALITIES[args.quality].with_overrides(
        engine=args.engine, observe=args.observe, control=args.control
    )


def cmd_figures(args) -> int:
    from repro.harness.experiments import EXPERIMENTS

    wanted = args.ids or ["all"]
    if "all" in wanted:
        wanted = list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown figure ids: {unknown}; "
              f"choose from {sorted(EXPERIMENTS)} or 'all'",
              file=sys.stderr)
        return 2
    quality = _quality(args)
    with _execution(args) as ctx:
        for name in wanted:
            function, _description = EXPERIMENTS[name]
            figure = function(quality)
            print(render_figure(figure))
            print()
        print(ctx.summary(), file=sys.stderr)
    return 0


def cmd_experiments(args) -> int:
    from repro.harness.experiments import EXPERIMENTS, ExperimentSuite

    unknown = [name for name in args.ids if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; "
              f"choose from {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    suite = ExperimentSuite(_quality(args))
    ids = args.ids or None
    with _execution(args) as ctx:
        results = suite.run(
            ids, progress=lambda name: print(f"running {name}...",
                                             file=sys.stderr)
        )
        print(ctx.summary(), file=sys.stderr)
    if args.json:
        suite.write_json(results, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.markdown:
        suite.write_markdown(results, args.markdown)
        print(f"wrote {args.markdown}", file=sys.stderr)
    if not args.json and not args.markdown:
        print(suite.render_all(results))
    return 0


def _sweep_template(args) -> SpecTemplate:
    """The declarative twin of :func:`_build_scenario` (load left open)."""
    from repro.harness.parallel import SpecTemplate

    config = _scenario_config(args)
    if args.topology == "single":
        return SpecTemplate("single_proxy", config,
                            label=f"single/{args.mode}", mode=args.mode)
    if args.topology == "series":
        return SpecTemplate("n_series", config,
                            label=f"series/{args.policy}",
                            n=args.nodes, policy=args.policy, auth=args.auth)
    if args.topology == "mix":
        return SpecTemplate("internal_external", config,
                            label=f"mix/{args.policy}",
                            external_fraction=args.external_fraction,
                            policy=args.policy)
    if args.topology == "fork":
        return SpecTemplate("parallel_fork", config,
                            label=f"fork/{args.policy}", policy=args.policy)
    raise ValueError(f"unknown topology {args.topology!r}")


def cmd_sweep(args) -> int:
    from repro.harness.saturation import staircase, sweep_loads

    loads = staircase(args.start, args.stop, args.step)
    if args.spec:
        template, _rate, duration, warmup, _drain = _spec_template(args)
        label = template.label
    else:
        template = _sweep_template(args)
        duration = 8.0 if args.duration is None else args.duration
        warmup = 3.0 if args.warmup is None else args.warmup
        label = f"{args.topology}/{args.policy}"
    with _execution(args) as ctx:
        sweep = sweep_loads(template, loads,
                            duration=duration, warmup=warmup)
        print(ctx.summary(), file=sys.stderr)
    rows = [
        [round(p.offered_cps), round(p.result.throughput_cps),
         f"{p.result.goodput_ratio:.3f}",
         f"{p.result.invite_rt.get('p95', 0) * 1e3:.1f}",
         p.result.server_busy_500]
        for p in sweep
    ]
    print(format_table(
        ["offered_cps", "throughput_cps", "goodput", "rt_p95_ms", "500s"],
        rows,
        title=f"{label}: saturation ~{sweep.max_throughput:.0f} cps",
    ))
    return 0


def cmd_run(args) -> int:
    from repro.harness.parallel import run_specs
    from repro.harness.runner import RunResult

    if args.spec:
        template, rate, duration, warmup, drain = _spec_template(args)
        spec = template.at(rate, duration, warmup, drain=drain)
    else:
        rate = 8000.0 if args.rate is None else args.rate
        duration = 8.0 if args.duration is None else args.duration
        warmup = 3.0 if args.warmup is None else args.warmup
        spec = _sweep_template(args).at(rate, duration, warmup)
    with _execution(args):
        result = RunResult.from_job(run_specs([spec])[0])
    obs, hybrid, sharded = result.obs, result.hybrid, result.sharded
    if args.json:
        out = result.as_dict()
        if obs is not None:
            out["obs"] = obs
        if hybrid is not None:
            out["hybrid"] = hybrid
        if sharded is not None:
            out["sharded"] = sharded
        print(json.dumps(out, indent=2))
        return 0
    print(format_table(
        ["metric", "value"],
        sorted(
            (key, str(value))
            for key, value in result.as_dict().items()
        ),
        title=f"{result.scenario_name} at {rate:.0f} cps",
    ))
    if obs is not None:
        from repro.obs import render_profile_table

        print()
        print(render_profile_table(obs))
    if hybrid is not None:
        print(f"hybrid: {hybrid['jump_count']} jumps, "
              f"{hybrid['skipped_seconds']:.1f} sim seconds fast-forwarded")
    if sharded is not None:
        print(f"sharded: {sharded['shards']} shards, "
              f"{sharded['windows']} windows, "
              f"{sharded['cross_messages']} cross-shard messages")
    return 0


def cmd_lp(args) -> int:
    from repro.core.lp import solve_fixed_routing, solve_free_routing

    with open(args.topology_file) as handle:
        spec = json.load(handle)
    topology = topology_from_json(spec)
    backend = None if args.backend == "auto" else args.backend
    solution = (
        solve_free_routing(topology, backend=backend) if args.free_routing
        else solve_fixed_routing(topology, backend=backend)
    )
    solution.verify()
    print(f"admissible load: {solution.throughput:.1f} cps")
    rows = [
        [name, round(solution.stateful_rate[name], 1),
         round(solution.stateless_rate[name], 1),
         f"{solution.utilization[name]:.1%}"]
        for name in topology.node_names
    ]
    print(format_table(
        ["node", "stateful_cps", "stateless_cps", "utilization"], rows
    ))
    return 0


def cmd_topogen(args) -> int:
    """Generate a cluster topology; report its LP oracle, dump JSON."""
    from repro.core import topogen

    gen = topogen.generate(
        args.family, args.size, seed=args.seed,
        heterogeneity=args.heterogeneity,
    )
    solution = gen.oracle()
    solution.verify()
    print(
        f"{gen.family} topology: {gen.n_proxies} proxies, "
        f"{len(gen.topology.edges)} edges, {len(gen.topology.flows)} flows "
        f"(seed={gen.seed}, heterogeneity={gen.heterogeneity:g})"
    )
    print(f"LP-optimal admitted load: {solution.throughput:.1f} cps")
    rows = [
        [
            node.name, node.depth, f"{node.speed:.2f}",
            round(node.t_sf), round(node.t_sl),
            round(solution.stateful_rate[node.name], 1),
            f"{solution.utilization[node.name]:.1%}",
        ]
        for node in gen.nodes.values()
    ]
    print(format_table(
        ["node", "depth", "speed", "t_sf", "t_sl", "lp_stateful_cps",
         "lp_utilization"],
        rows,
    ))
    if args.json:
        payload = {
            "spec": gen.spec(),
            "nodes": {
                name: [node.t_sf, node.t_sl]
                for name, node in gen.nodes.items()
            },
            "edges": [list(edge) for edge in gen.topology.edges],
            "flows": [
                {"name": flow.name, "path": list(flow.path),
                 "share": flow.share}
                for flow in gen.topology.flows
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json} (loadable by 'repro lp')")
    return 0


def topology_from_json(spec: dict) -> Topology:
    """Build a Topology from the CLI's JSON format.

    Format::

        {"nodes": {"S1": [10360, 12300], ...},
         "edges": [["S1", "S2"], ...],
         "flows": [{"name": "main", "path": ["S1", "S2"], "share": 1.0}]}
    """
    from repro.core.topology import Topology

    topology = Topology()
    for name, (t_sf, t_sl) in spec["nodes"].items():
        topology.add_node(name, t_sf, t_sl)
    for src, dst in spec.get("edges", []):
        topology.add_edge(src, dst)
    for flow in spec.get("flows", []):
        topology.add_flow(flow["name"], flow["path"], flow.get("share", 1.0))
    return topology


def _observe_with_spans(spec: Optional[str]):
    """Coerce an ``--observe`` spec, forcing span tracing on."""
    from repro.obs import ObserveConfig

    config = ObserveConfig.coerce(spec)
    if config is None:
        return ObserveConfig(cpu=False, telemetry=False, spans=True)
    if config.spans:
        return config
    return ObserveConfig(
        cpu=config.cpu, telemetry=config.telemetry, spans=True,
        trace_max_entries=config.trace_max_entries,
        trace_sample_every=config.trace_sample_every,
    )


def cmd_trace(args) -> int:
    from repro.sim.trace import render_ladder

    factory_args = argparse.Namespace(**vars(args))
    factory_args.rate = args.rate
    factory_args.observe = _observe_with_spans(args.observe)
    scenario = _build_scenario(factory_args)
    trace = scenario.observer.trace
    scenario.start()
    scale = args.scale if args.scale is not None else 25.0
    scenario.loop.run_until(args.calls / (args.rate / scale) + 1.0)
    scenario.stop_load()
    scenario.loop.run_until(scenario.loop.now + 2.0)
    for call_id in trace.call_ids()[: args.calls]:
        print(f"--- {call_id} ---")
        print(render_ladder(trace.call_flow(call_id)))
        print()
    return 0


def cmd_obs(args) -> int:
    """Run one observed load point and report/export what was recorded."""
    from repro.obs import (
        ObserveConfig,
        export_csv,
        export_json,
        render_profile_table,
        render_spans,
        spans_by_call,
    )
    from repro.harness.runner import run_scenario

    spec = args.observe or ("all" if args.spans else "cpu,telemetry")
    observe = ObserveConfig.coerce(spec)
    if args.spans and not observe.spans:
        observe = _observe_with_spans(spec)
    factory_args = argparse.Namespace(**vars(args))
    factory_args.observe = observe
    scenario = _build_scenario(factory_args)
    result = run_scenario(scenario, duration=args.duration,
                          warmup=args.warmup)
    snapshot = scenario.observer.snapshot()
    print(f"{scenario.name} at {args.rate:.0f} cps: "
          f"throughput {result.throughput_cps:.0f} cps, "
          f"goodput {result.goodput_ratio:.3f}")
    print()
    if observe.cpu:
        print(render_profile_table(snapshot))
        print()
    if observe.telemetry and snapshot.get("telemetry"):
        rows = []
        for key, telemetry in sorted(snapshot["telemetry"].items()):
            periods = telemetry["periods"]
            last = periods[-1] if periods else {}
            rows.append([
                key, len(periods), len(telemetry["events"]),
                last.get("branch", "-"),
                "yes" if last.get("overload_active") else "no",
            ])
        print(format_table(
            ["policy", "periods", "events", "last_branch", "overloaded"],
            rows, title="control-loop telemetry",
        ))
        print()
    if observe.spans and scenario.observer.trace is not None:
        spans = spans_by_call(scenario.observer.trace)
        for call_id in list(spans)[: args.calls]:
            print(f"--- {call_id} ---")
            print(render_spans(spans[call_id]))
            print()
    if args.json:
        export_json(snapshot, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.csv_dir:
        for path in export_csv(snapshot, args.csv_dir):
            print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_cache(args) -> int:
    from repro.harness.runcache import RunCache

    cache = RunCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        rows = [
            [name, info["entries"], info["bytes"],
             "current" if info["current"] else "stale"]
            for name, info in stats["versions"].items()
        ]
        print(format_table(
            ["version", "entries", "bytes", "status"],
            rows,
            title=f"run cache at {stats['path']} "
                  f"(schema v{stats['schema_version']}, "
                  f"{stats['entries']} entries, {stats['bytes']} bytes)",
        ))
        return 0
    if args.action == "clear":
        removed = cache.clear(stale_only=args.stale)
        scope = "stale versions" if args.stale else "all versions"
        if args.json:
            print(json.dumps(dict(removed, scope=scope), indent=2))
        else:
            print(f"cleared {scope}: {removed['removed_entries']} entries, "
                  f"{removed['removed_bytes']} bytes")
        return 0
    raise ValueError(f"unknown cache action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SERvartuka reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One definition per shared flag group (argparse parents): engine
    # selection, worker/cache fan-out, and the declarative --spec.
    engine = _engine_parent()
    parallel = _parallel_parent()
    spec = _spec_parent()

    p_fig = sub.add_parser("figures", parents=[engine, parallel],
                           help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="*",
                       help="figure ids or 'all' (the default); an unknown "
                            "id prints the list")
    p_fig.add_argument("--quality", default="quick", choices=QUALITY_NAMES)
    p_fig.set_defaults(func=cmd_figures)

    p_exp = sub.add_parser(
        "experiments", parents=[engine, parallel],
        help="run the reproduction suite, export JSON/Markdown",
    )
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (default: all)")
    p_exp.add_argument("--quality", default="quick", choices=QUALITY_NAMES)
    p_exp.add_argument("--json", help="write machine-readable results here")
    p_exp.add_argument("--markdown", help="write a Markdown report here")
    p_exp.set_defaults(func=cmd_experiments)

    p_sweep = sub.add_parser("sweep", parents=[engine, parallel, spec],
                             help="throughput sweep to saturation")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--start", type=float, default=6000)
    p_sweep.add_argument("--stop", type=float, default=12000)
    p_sweep.add_argument("--step", type=float, default=1000)
    p_sweep.add_argument("--duration", type=float, default=None,
                         help="measurement window seconds (default 8)")
    p_sweep.add_argument("--warmup", type=float, default=None,
                         help="warmup seconds (default 3)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_run = sub.add_parser("run", parents=[engine, parallel, spec],
                           help="measure one load point")
    _add_scenario_args(p_run)
    p_run.add_argument("--rate", type=float, default=None,
                       help="offered load, paper cps (default 8000)")
    p_run.add_argument("--duration", type=float, default=None,
                       help="measurement window seconds (default 8)")
    p_run.add_argument("--warmup", type=float, default=None,
                       help="warmup seconds (default 3)")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_obs = sub.add_parser(
        "obs", parents=[engine],
        help="observe one load point: CPU profile, telemetry, spans",
    )
    _add_scenario_args(p_obs)
    p_obs.add_argument("--rate", type=float, default=8000)
    p_obs.add_argument("--duration", type=float, default=8.0)
    p_obs.add_argument("--warmup", type=float, default=3.0)
    p_obs.add_argument("--spans", action="store_true",
                       help="also record per-call spans and print the "
                            "first --calls of them")
    p_obs.add_argument("--calls", type=int, default=2,
                       help="span trees to print with --spans")
    p_obs.add_argument("--json", metavar="PATH",
                       help="write the full observability snapshot here")
    p_obs.add_argument("--csv-dir", metavar="DIR",
                       help="write profile/telemetry CSV files here")
    p_obs.set_defaults(func=cmd_obs)

    p_lp = sub.add_parser("lp", help="solve the state-distribution LP")
    p_lp.add_argument("topology_file", help="JSON topology description")
    p_lp.add_argument("--free-routing", action="store_true")
    p_lp.add_argument("--backend", choices=["auto", "scipy", "simplex"],
                      default="auto",
                      help="LP solver backend (default: scipy when "
                           "installed, else the pure-python simplex)")
    p_lp.set_defaults(func=cmd_lp)

    p_topogen = sub.add_parser(
        "topogen",
        help="generate a cluster topology and solve its LP oracle",
    )
    p_topogen.add_argument("--family", choices=["chain", "tree", "mesh"],
                           default="mesh")
    p_topogen.add_argument("--size", type=int, default=12,
                           help="number of proxies (a floor for mesh)")
    p_topogen.add_argument("--seed", type=int, default=1)
    p_topogen.add_argument("--heterogeneity", type=float, default=0.0,
                           help="node speed spread (0 = homogeneous)")
    p_topogen.add_argument("--json", default=None,
                           help="also dump the topology as 'repro lp' JSON")
    p_topogen.set_defaults(func=cmd_topogen)

    p_trace = sub.add_parser("trace", parents=[engine],
                             help="print call ladder diagrams")
    _add_scenario_args(p_trace)
    p_trace.add_argument("--rate", type=float, default=100)
    p_trace.add_argument("--calls", type=int, default=2)
    p_trace.set_defaults(func=cmd_trace)

    p_cache = sub.add_parser("cache", help="inspect or clear the run cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--dir", default=None,
                         help="cache location (default: .repro-cache, "
                              "or $REPRO_CACHE_DIR)")
    p_cache.add_argument("--stale", action="store_true",
                         help="with clear: only remove abandoned schema "
                              "versions")
    p_cache.add_argument("--json", action="store_true")
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, NotImplementedError) as error:
        # A run that cannot work as configured (what the executor's
        # CONFIG_ERRORS lets through unretried): one line, like argparse.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
