"""Command-line interface: ``python -m repro <command>``.

argparse over :mod:`repro.api`: a handler turns its flags into the
keywords of one ``api`` call (:func:`_api_kwargs`) and prints what comes
back, so a command and the call it spells denote the same run -- the
door-by-door table, with the defaults of each, is in docs/API.md.

- ``figures [ids...]`` / ``experiments [ids...]`` -- one command under
  two names: regenerate paper tables/figures (``fig3 fig4 lp fig5 fig6
  fig7 fig8 three-series resilience overload optgap auth`` or ``all``),
  to the terminal or as ``--json`` / ``--markdown``, then the ledger of
  their paper anchors (:mod:`repro.harness.anchors`); exit 1 names an
  anchor out of band,
- ``sweep`` -- throughput sweep of one topology/policy,
- ``run`` -- a single load point with full measurement detail,
- ``lp`` -- solve the state-distribution LP for a topology described
  in a small JSON file,
- ``topogen`` -- generate a seeded cluster topology (chain, tree or
  multi-domain mesh), solve its LP oracle and optionally dump it as
  ``lp``-loadable JSON,
- ``trace`` -- simulate a few calls and print their ladder diagrams,
- ``obs`` -- run one load point with the observability layer attached
  and report the per-functionality CPU profile, control-loop telemetry
  and (optionally) per-call spans; exportable as JSON/CSV,
- ``cache`` -- inspect or clear the on-disk run cache.

All loads are paper-equivalent calls/second.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.harness.report import format_table
from repro.sip.message import ENGINES, check_engine

# Each command imports what it runs inside its handler: ``repro --help``
# and ``repro cache`` build no simulator, and a pool worker started by
# ``spawn`` (which re-imports this module as ``__main__``) loads only
# the run path, not the figure pipeline, the LP or the topology
# generator; a forked one inherits what its parent loaded.
if TYPE_CHECKING:
    from repro.core.topology import Topology

#: ``--quality`` choices: the keys of ``harness.figures.QUALITIES``.
QUALITY_NAMES = ("full", "quick", "standard")

#: ``--topology`` value -> (scenario builder, {builder parameter: the
#: flag that sets it}).
TOPOLOGIES = {
    "single": ("single_proxy", {"mode": "mode"}),
    "series": ("n_series",
               {"n": "nodes", "policy": "policy", "auth": "auth"}),
    "mix": ("internal_external",
            {"external_fraction": "external_fraction", "policy": "policy"}),
    "fork": ("parallel_fork", {"policy": "policy"}),
}

#: What a scenario command assumes where neither a flag nor a ``--spec``
#: file says otherwise (``repro.api`` called directly assumes scale 10,
#: a 10 s + 4 s window and no rate).
DEFAULTS = {"scale": 25.0, "rate": 8000.0, "duration": 8.0, "warmup": 3.0}

_LOAD_FLAGS = {
    "rate": "offered load, paper cps",
    "duration": "measurement window seconds",
    "warmup": "warmup seconds",
}


def _api_kwargs(args, *load_flags) -> dict:
    """The ``repro.api`` keywords the scenario flags denote: the given
    ``load_flags`` and the config knobs as typed (``None`` = not given),
    plus either ``spec=`` or the topology, its builder parameters and
    the CLI's :data:`DEFAULTS`."""
    given = {
        name: getattr(args, name)
        for name in (*load_flags, "scale", "seed", "engine", "observe",
                     "control", "shards")
    }
    if getattr(args, "spec", None):
        from repro.api import ScenarioSpec

        return dict(given, spec=ScenarioSpec.coerce(args.spec))
    builder, params = TOPOLOGIES[args.topology]
    for name, default in DEFAULTS.items():
        if name in given and given[name] is None:
            given[name] = default
    return dict(
        given, topology=builder,
        **{param: getattr(args, flag) for param, flag in params.items()},
    )


def _parallel_parent() -> argparse.ArgumentParser:
    """Shared ``--jobs``/``--cache`` flags: defined once, inherited by
    every command that fans runs across workers (argparse ``parents=``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for independent runs "
             "(default: the CPUs this process may use)",
    )
    parent.add_argument(
        "--force-jobs", action="store_true",
        help="allow --jobs above the CPUs this process may use "
             "instead of clamping",
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
    from repro.harness.parallel import execution, usable_cpus

    jobs = args.jobs if args.jobs is not None else usable_cpus()
    return execution(
        jobs=max(1, jobs),
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=True,
        force=getattr(args, "force_jobs", False),
    )


def _add_scenario_args(parser: argparse.ArgumentParser, *load_flags) -> None:
    parser.add_argument("--topology", default="series",
                        choices=list(TOPOLOGIES))
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
                             f"default {DEFAULTS['scale']:g})")
    parser.add_argument("--seed", type=int, default=None)
    for name in load_flags:
        parser.add_argument(
            f"--{name}", type=float, default=None,
            help=f"{_LOAD_FLAGS[name]} (default {DEFAULTS[name]:g})")


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
                             "bit-identical oracle, sharded partitions "
                             "one run across worker processes)")
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


def cmd_experiments(args) -> int:
    """``figures`` and ``experiments``: one handler under both names."""
    from repro.harness import anchors
    from repro.harness.experiments import EXPERIMENTS, ExperimentSuite
    from repro.harness.figures import QUALITIES

    ids = args.ids
    if not ids or "all" in ids:
        ids = list(EXPERIMENTS)
    unknown = [name for name in ids if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown {args.command[:-1]} ids: {unknown}; "
              f"choose from {sorted(EXPERIMENTS)} or 'all'",
              file=sys.stderr)
        return 2
    suite = ExperimentSuite(QUALITIES[args.quality].with_overrides(
        engine=args.engine, observe=args.observe, control=args.control,
        shards=args.shards))
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
    exported = args.json or args.markdown
    if not exported:
        print(suite.render_all(results))
    # The anchors of what ran follow the figures; one failed fails the run.
    ledger = anchors.ledger(results)
    if ledger:
        print("\n" + anchors.render(ledger),
              file=sys.stderr if exported else sys.stdout)
    failed = [row[0] for row in ledger if row[-1] == "FAIL"]
    if failed:
        print(f"repro {args.command}: anchors failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    from repro import api
    from repro.harness.saturation import staircase

    loads = staircase(args.start, args.stop, args.step)
    label = None if args.spec else f"{args.topology}/{args.policy}"
    with _execution(args) as ctx:
        sweep = api.sweep(loads=loads, label=label,
                          **_api_kwargs(args, "duration", "warmup"))
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
        title=f"{sweep.label}: saturation ~{sweep.max_throughput:.0f} cps",
    ))
    return 0


def cmd_run(args) -> int:
    from repro import api

    kwargs = _api_kwargs(args, "rate", "duration", "warmup")
    with _execution(args):
        result = api.run_scenario(**kwargs)
    snapshots = {
        name: getattr(result, name) for name in result.SNAPSHOTS
        if getattr(result, name) is not None
    }
    if args.json:
        print(json.dumps(dict(result.as_dict(), **snapshots), indent=2))
        return 0
    rate = kwargs["rate"]
    if rate is None:  # not typed, so the spec document's
        rate = kwargs["spec"].rate
    print(format_table(
        ["metric", "value"],
        sorted(
            (key, str(value))
            for key, value in result.as_dict().items()
        ),
        title=f"{result.scenario_name} at {rate:.0f} cps",
    ))
    if "obs" in snapshots:
        from repro.obs.export import render_profile_table

        print()
        print(render_profile_table(snapshots["obs"]))
    if "sharded" in snapshots:
        sharded = snapshots["sharded"]
        print(f"sharded: {sharded['shards']} shards, "
              f"{sharded['windows']} windows, "
              f"{sharded['cross_messages']} cross-shard messages")
    return 0


def cmd_lp(args) -> int:
    from repro.core.lp import solve_fixed_routing, solve_free_routing

    with open(args.topology_file) as handle:
        spec = json.load(handle)
    topology = topology_from_json(spec)
    solution = (
        solve_free_routing(topology) if args.free_routing
        else solve_fixed_routing(topology)
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
    from repro.obs.observe import ObserveConfig

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
    from repro import api
    from repro.sim.events import collector_off
    from repro.sim.trace import render_ladder

    scenario = api.make_scenario(**dict(
        _api_kwargs(args, "rate"),
        observe=_observe_with_spans(args.observe)))
    trace = scenario.observer.trace
    scenario.start()
    with collector_off():
        scenario.loop.run_until(
            args.calls / (args.rate / scenario.config.scale) + 1.0)
        scenario.stop_load()
        scenario.loop.run_until(scenario.loop.now + 2.0)
    for call_id in trace.call_ids()[: args.calls]:
        print(f"--- {call_id} ---")
        print(render_ladder(trace.call_flow(call_id)))
        print()
    return 0


def cmd_obs(args) -> int:
    """Run one observed load point and report/export what was recorded."""
    from repro import api
    from repro.harness.runner import run_scenario
    from repro.obs.export import export_csv, export_json, render_profile_table
    from repro.obs.observe import ObserveConfig
    from repro.obs.spans import render_spans, spans_by_call

    spec = args.observe or ("all" if args.spans else "cpu,telemetry")
    observe = ObserveConfig.coerce(spec)
    if args.spans and not observe.spans:
        observe = _observe_with_spans(spec)
    kwargs = _api_kwargs(args, "rate", "duration", "warmup")
    duration, warmup = kwargs.pop("duration"), kwargs.pop("warmup")
    scenario = api.make_scenario(**dict(kwargs, observe=observe))
    result = run_scenario(scenario, duration=duration, warmup=warmup)
    snapshot = scenario.observer.snapshot()
    print(f"{scenario.name} at {kwargs['rate']:.0f} cps: "
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

    p_exp = sub.add_parser(
        "figures", aliases=["experiments"], parents=[engine, parallel],
        help="regenerate paper figures; print them or export "
             "JSON/Markdown",
    )
    p_exp.add_argument("ids", nargs="*",
                       help="figure/experiment ids or 'all' (the default); "
                            "an unknown id prints the list")
    p_exp.add_argument("--quality", default="quick", choices=QUALITY_NAMES)
    p_exp.add_argument("--json", help="write machine-readable results here")
    p_exp.add_argument("--markdown", help="write a Markdown report here")
    p_exp.set_defaults(func=cmd_experiments)

    p_sweep = sub.add_parser("sweep", parents=[engine, parallel, spec],
                             help="throughput sweep to saturation")
    _add_scenario_args(p_sweep, "duration", "warmup")
    p_sweep.add_argument("--start", type=float, default=6000)
    p_sweep.add_argument("--stop", type=float, default=12000)
    p_sweep.add_argument("--step", type=float, default=1000)
    p_sweep.set_defaults(func=cmd_sweep)

    p_run = sub.add_parser("run", parents=[engine, parallel, spec],
                           help="measure one load point")
    _add_scenario_args(p_run, "rate", "duration", "warmup")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_obs = sub.add_parser(
        "obs", parents=[engine],
        help="observe one load point: CPU profile, telemetry, spans",
    )
    _add_scenario_args(p_obs, "rate", "duration", "warmup")
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
    except (ValueError, TypeError) as error:
        # A run that cannot work as configured (what the executor's
        # CONFIG_ERRORS lets through unretried): one line, like argparse.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
