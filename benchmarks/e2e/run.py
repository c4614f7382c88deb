"""The simulator's one benchmark: end to end and layer by layer.

Two ways in, one measurement path:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One fresh process measures one workload (this is what the driver in
    ``BENCHMARK.json`` and the suite below both launch).  It sets the
    workload up, repeats the workload's run for about S host seconds
    (at least twice; every repeat has identical inputs, so they also
    check determinism; times are in reference-host seconds, see
    ``hostspeed.py``), checks every output, and prints each metric by
    name, a ``detail`` line, and last one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
    the end-to-end metrics, ``--trace 1`` the per-layer ones (one more
    run under cProfile, never mixed into the timed numbers).

``run.py --out FILE [--seed 1] [--repeats N] [--workloads a,b]
[--no-trace] [--smoke]``
    The suite: one child per (workload, repeat), one at a time, all at
    one seed so the spread is host noise only; medians, quartiles,
    min/max and n go to FILE with a host stamp (``compare.py`` reads two
    such files).  Exits non-zero if any operation failed.

Engine mode, GC thresholds, message pools and parse caches are process
globals and ``ru_maxrss`` is monotone, hence one fresh process per
measurement.  Processes run with ``PYTHONHASHSEED=0``: under a random
hash seed the sharded process driver's merged ``proxy_utilization``
differs from turbo's in the last digit on some runs.
"""

import time

_T0 = time.perf_counter()  # the process's first statement: set-up starts

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import metrics as M  # noqa: E402  (names only; imports no simulator code)

#: Everything the benchmark writes goes under here (git-ignored).
SCRATCH = os.path.join(HERE, ".tmp")
#: Default suite repeats (--repeats overrides).
REPEATS = {"chain_steady": 5, "chain_faults": 5}
#: Set-up launches per timed process, per traced process, and unit-cost
#: rounds; the smoke size does each once or thrice.
EFFORT, SMOKE_EFFORT = (5, 3, 30), (1, 1, 3)
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------
def _child_env():
    return dict(os.environ, PYTHONHASHSEED="0")


def _command(workload, seed, size, *extra):
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--size", size, *extra]


def _set_up_times(args, launches, stopwatch):
    """Median set-up split over fresh ``--setup-only`` processes, each
    timed from its first statement to 'workload ready to run'."""
    samples = []
    for _ in range(launches):
        stopwatch.start()
        done = subprocess.run(
            _command(args.workload, args.seed, args.size, "--setup-only"),
            env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        speed = stopwatch.stop()["host_speed"]
        split = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append({key: value * speed for key, value in split.items()})
    return {key: statistics.median(s[key] for s in samples)
            for key in ("import_s", "build_s")}


def _peak_rss_mb():
    """High-water mark of this process or its largest reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _one_run(workload, context, ledger, stopwatch, label, profiler=None):
    """Run, time and check once; returns what was observed, or None."""
    gc.collect()
    stopwatch.start()
    try:
        if profiler is None:
            out = workload.run(context)
        else:
            out = profiler.runcall(workload.run, context)
        timing = stopwatch.stop()
        seen = workload.observe(context, out)
    except Exception:
        traceback.print_exc()
        ledger.record_run(label, None, "raised (traceback above)")
        return None
    seen.update(timing)
    ledger.record_run(label, seen)
    return seen


def _repeat_runs(workload, context, ledger, stopwatch, seconds, at_least):
    """Identical runs until ``seconds`` of host time have passed."""
    runs = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while True:
        seen = _one_run(workload, context, ledger, stopwatch,
                        f"run {attempts}")
        attempts += 1
        if seen is not None:
            runs.append(seen)
        if attempts >= at_least and time.perf_counter() >= deadline:
            return runs
        context = workload.prepare()


def _median(runs, key):
    return statistics.median(run[key] for run in runs)


def _effort(args):
    return SMOKE_EFFORT if args.size == "smoke" else EFFORT


def _end_to_end(args, workload, context, ledger, stopwatch):
    launches = _effort(args)[0]
    runs = _repeat_runs(workload, context, ledger, stopwatch, args.seconds,
                        at_least=2)
    if not runs:
        return None, {}
    first = runs[0]
    workload.cross_check(ledger, first, stopwatch)
    set_up = _set_up_times(args, launches, stopwatch)
    wall = _median(runs, "wall_s")
    values = {
        "wall_s": wall,
        "host_us_per_call": wall / first["calls"] * 1e6,
        "cpu_s": _median(runs, "cpu_s"),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": set_up["import_s"] + set_up["build_s"],
        "sim_goodput_cps": first["goodput"],
    }
    return values, _detail(runs, set_up_launches=launches)


def _per_layer(args, workload, context, ledger, stopwatch):
    import layers

    _timed, launches, rounds = _effort(args)
    runs = _repeat_runs(workload, context, ledger, stopwatch,
                        args.seconds / 3.0, at_least=1)
    if not runs:
        return None, {}
    first = runs[0]
    workload.cross_check(ledger, first, stopwatch)

    profiler = cProfile.Profile()
    traced = _one_run(workload, workload.prepare(), ledger, stopwatch,
                      "traced run", profiler)
    if traced is None:
        return None, {}

    wall = _median(runs, "wall_s")
    calls, events = first["calls"], first["events"]
    values = dict.fromkeys((m["name"] for m in M.PER_LAYER), 0.0)
    values.update(layers.profile_split(profiler, calls))
    values.update(first["counters"])
    values.update(workload.layer_extras(ledger, first, stopwatch))
    values.update(layers.unit_costs(rounds, workload.scratch))
    set_up = _set_up_times(args, launches, stopwatch)
    values.update({
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_x": traced["wall_s"] / wall,
        "sim.loop.events": events,
        "sim.loop.events_per_call": events / calls,
        "sim.loop.events_per_host_s": events / wall,
        "sim_invite_rt_p50_ms": first["rt"]["p50"] * 1e3,
        "sim_invite_rt_p95_ms": first["rt"]["p95"] * 1e3,
        "sim_invite_rt_count": first["rt"]["count"],
        "sim_call_fail_share":
            first["window_failed"] / first["window_attempted"],
        "paper_err_pct": first.get("paper_err_pct", 0.0),
        "harness.import_s": set_up["import_s"],
        "harness.build_s": set_up["build_s"],
        "harness.payload_us": layers.normalize_us(first["payload"], rounds),
    })
    if "windows" in first:
        values.update({
            "sim.shard.windows": first["windows"],
            "sim.shard.cross_messages": first["cross_messages"],
            "sim.shard.windows_per_cross_message":
                first["windows"] / first["cross_messages"],
            "sim.shard.speedup_vs_turbo":
                values["sim.shard.turbo_wall_s"] / wall,
        })
    if "hit_rate" in first:
        speedup = values["harness.pool.serial_wall_s"] / wall
        values.update({
            "harness.pool.jobs_effective": first["jobs_effective"],
            "harness.pool.speedup": speedup,
            "harness.pool.efficiency": speedup / first["jobs_effective"],
            "harness.parallel.retried_chunks": first["retried_chunks"],
            "harness.runcache.warm_wall_ms": _median(runs, "warm_wall_ms"),
            "harness.runcache.hit_rate": first["hit_rate"],
            "harness.runcache.bytes_per_entry": first["bytes_per_entry"],
        })
    # Operations counted so far; the final line's counts are the same.
    values["failed_share"] = ledger.failed_share
    return values, _detail(runs, unit_cost_rounds=rounds,
                           set_up_launches=launches)


def _detail(runs, **extra):
    """Exact quantities and the samples behind the medians (the suite
    reads this line; the driver ignores it)."""
    first = runs[0]
    return dict(
        fingerprint=first["fingerprint"], calls=first["calls"],
        events=first["events"],
        wall_samples_s=[run["wall_s"] for run in runs],
        raw_wall_samples_s=[run["raw_wall_s"] for run in runs],
        host_speed=[run["host_speed"] for run in runs],
        shard_driver=first.get("driver"),
        jobs_effective=first.get("jobs_effective"),
        **extra,
    )


def _reap_resource_tracker():
    """The simulator's spawn pools start multiprocessing's resource
    tracker, which would outlive this process by a moment; stop it and
    wait, so that every process started here has ended on return."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"[e2e] no simulator sources at {SRC}: nothing to measure",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv, _child_env())
    import workloads  # imports repro.api: the bulk of set-up

    import_s = time.perf_counter() - _T0
    scratch = os.path.join(SCRATCH, str(os.getpid()))
    try:
        workload = workloads.make(args.workload, args.seed, args.size,
                                  scratch)
        context = workload.prepare()
        if args.setup_only:
            build_s = time.perf_counter() - _T0 - import_s
            print(json.dumps({"import_s": import_s, "build_s": build_s}))
            return 0
        import checks
        import hostspeed

        ledger = checks.Ledger()
        measure = _per_layer if args.trace else _end_to_end
        with hostspeed.Stopwatch() as stopwatch:
            values, detail = measure(args, workload, context, ledger,
                                     stopwatch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        _reap_resource_tracker()
    if values is None:
        print("[e2e] no run completed; no result", file=sys.stderr)
        return 1

    for name, value in values.items():
        print(f"{name} {value:.6g} {M.UNITS[name]}")
    detail.update(workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace,
                  reasons=ledger.reasons)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": M.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0 if ledger.failed == 0 else 1


# ---------------------------------------------------------------------------
# The suite: one child per (workload, repeat)
# ---------------------------------------------------------------------------
def _launch(args, workload, trace):
    """One child; returns (result, detail), or (None, reason) when the
    child timed out, crashed or printed no result -- one failed
    operation."""
    command = _command(workload, args.seed, args.size, "--seconds",
                       str(args.seconds), "--trace", str(trace))
    try:
        done = subprocess.run(command, env=_child_env(), text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(next(
            line for line in reversed(lines) if line.startswith("detail ")
        )[len("detail "):])
        result["metrics"]
    except (IndexError, KeyError, StopIteration, ValueError):
        return None, f"exit {done.returncode} without a result"
    return result, detail


def summarize(values):
    """Median, quartiles (min/max below 4 samples), extremes and n."""
    ordered = sorted(values)
    if len(ordered) >= 4:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1, q3 = ordered[0], ordered[-1]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered),
            "values": list(values)}


def _git_commit():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(args) -> int:
    chosen = args.workloads.split(",") if args.workloads else list(M.WORKLOADS)
    unknown = [name for name in chosen if name not in M.WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; one of {list(M.WORKLOADS)}",
              file=sys.stderr)
        return 2
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "commit": _git_commit(),
            "loadavg_1m_at_start": os.getloadavg()[0],
        },
        "config": {"seed": args.seed, "seconds": args.seconds,
                   "size": args.size, "trace": not args.no_trace},
        "workloads": {},
    }
    any_failed = False
    for workload in chosen:
        repeats = args.repeats or REPEATS.get(workload, 3)
        passes = [0] * repeats + ([] if args.no_trace else [1])
        samples, exact, reasons = {}, {}, []
        attempted = failed = 0
        for index, trace in enumerate(passes):
            print(f"[e2e] {workload} pass {index + 1}/{len(passes)} "
                  f"trace={trace}", file=sys.stderr, flush=True)
            result, detail = _launch(args, workload, trace)
            if result is None:
                attempted, failed = attempted + 1, failed + 1
                reasons.append(detail)
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            reasons.extend(detail["reasons"])
            values = {name: entry["value"]
                      for name, entry in result["metrics"].items()}
            values["fingerprint"] = detail["fingerprint"]
            for name, value in values.items():
                if name == "fingerprint" or M.is_exact(name, workload):
                    if exact.setdefault(name, value) != value:
                        attempted, failed = attempted + 1, failed + 1
                        reasons.append(
                            f"{name} changed between processes: "
                            f"{exact[name]!r} vs {value!r}")
                else:
                    samples.setdefault(name, []).append(value)
            for key in ("shard_driver", "jobs_effective"):
                if detail.get(key) is not None:
                    report["host"][key] = detail[key]
            exact.update(calls=detail["calls"], events=detail["events"])
        any_failed = any_failed or failed > 0
        report["workloads"][workload] = {
            "repeats": repeats, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted, "reasons": reasons,
            "exact": exact,
            "metrics": {name: dict(summarize(values), unit=M.UNITS[name])
                        for name, values in samples.items()},
        }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    _print_report(report)
    return 1 if any_failed else 0


def _print_report(report):
    for workload, entry in report["workloads"].items():
        print(f"\n== {workload}: {entry['failed']}/{entry['attempted']} "
              f"operations failed ==")
        for name, value in entry["exact"].items():
            unit = M.UNITS.get(name, "")
            print(f"  {name:42s} {value} {unit} (exact)")
        for name, s in entry["metrics"].items():
            print(f"  {name:42s} {s['median']:.6g} {s['unit']} "
                  f"[{s['min']:.6g} .. {s['max']:.6g}] n={s['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(M.WORKLOADS),
                        help="measure this workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS,
                        help="host seconds one process measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("smoke", "bench", "full"),
                        default="bench", help="simulated window preset "
                        "(workloads.SIZES); full = the canonical inputs")
    parser.add_argument("--setup-only", action="store_true",
                        help="(internal) set up, print the time, exit")
    parser.add_argument("--out", help="suite mode: write the report here")
    parser.add_argument("--repeats", type=int, default=0)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke windows, 1 repeat, 1 s: under a minute")
    args = parser.parse_args(argv)
    if args.smoke:
        args.size, args.repeats, args.seconds = "smoke", 1, 1.0
    if args.workload:
        return run_workload(args)
    if not args.out:
        parser.error("give --workload NAME (one process) or --out FILE "
                     "(the suite)")
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
