"""Names, units, directions and bounds of everything the benchmark reports.

This module is the single source for ``BENCHMARK.json`` (regenerate it
with ``python3 benchmarks/e2e/metrics.py > BENCHMARK.json``; the
self-tests fail when the two drift) and for ``compare.py``'s verdicts.
It imports nothing from the simulator.

Host time and simulated time are never mixed: ``sim_*`` / ``paper_*``
values are simulated and repeat exactly at a fixed seed; everything
else is a host measurement unless listed in :func:`is_exact`.
"""

from __future__ import annotations

import json
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: How long one driver run measures (``--seconds``).  Sized so that the
#: driver's 4 + 22 x 5 runs, each with its set-up launches and output
#: checks, stay well inside its 3420 s cap on a 2-core host.
RUN_SECONDS = 12

#: name -> one-line reason (README.md has the long form).
WORKLOADS = {
    "chain_steady": (
        "two-proxy chain just under SERvartuka's knee on the turbo rung: "
        "the per-message forwarding path does all the work, no parser, "
        "no retransmissions"
    ),
    "chain_wire": (
        "same inputs on the wire-faithful reference rung: every hop "
        "serialises and re-parses, so codec work shows and turbo-only "
        "tricks must not; also the oracle chain_steady is checked against"
    ),
    "chain_faults": (
        "same chain at 8000 cps with 10% link loss and two proxy "
        "crashes: timers fire instead of being cancelled, "
        "retransmissions and restart herds dominate"
    ),
    "mesh_sharded": (
        "51-proxy generated mesh at 0.8 x the LP bound on the sharded "
        "rung (2 shards): the only workload where sim.shard and its "
        "window barriers do work"
    ),
    "fig5_sweep": (
        "Figure 5 as users regenerate it: 12 runs through the 2-job "
        "pool into a cold run cache, then a warm replay; pool spawn, "
        "pickling and cache I/O carry the overhead"
    ),
}

#: End-to-end metrics: what a user of the simulator sees.  ``bound`` is
#: the share of the parent's median a later change may lose.  The host
#: times carry the largest bound the contract allows because ten 12 s
#: runs on this sandbox spread by 7-15% even in reference-host seconds
#: (README.md, "Latest numbers"); compare.py reports a narrower change
#: as ``same``, never as a gain.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "host_us_per_call", "unit": "us/call", "better": "lower",
     "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_goodput_cps", "unit": "cps", "better": "higher",
     "bound": 0.20},
]

#: The simulator's layers, named after its modules (layers.py maps every
#: source file to one of them).
LAYERS = (
    "sip.message", "sip.parser", "sip.transaction",
    "sim.loop", "sim.cpu", "sim.network", "sim.metrics", "sim.rng",
    "sim.faults", "sim.hybrid", "sim.shard",
    "servers.proxy", "servers.endpoints",
    "core.policy", "core.lp", "harness", "stdlib",
)

#: Simulated and pass/fail figures that the driver contract keeps out of
#: ``end_to_end`` (they are 0 on a healthy run, apply to one workload,
#: or -- the response-time percentiles at the knee -- swing by more
#: than any admissible bound from seed to seed).  Reported with the
#: traced pass; all exact at a fixed seed.
_SIMULATED = [
    ("failed_share", "ratio", "lower"),
    ("sim_invite_rt_p50_ms", "ms", "lower"),
    ("sim_invite_rt_p95_ms", "ms", "lower"),
    ("sim_invite_rt_count", "count", "higher"),
    ("sim_call_fail_share", "ratio", "lower"),
    ("paper_err_pct", "%", "lower"),
]

_TRACE = [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_x", "x", "lower"),
]

#: Counters read from public results.
_COUNTERS = [
    ("sim.loop.events", "count", "lower"),
    ("sim.loop.events_per_call", "1/call", "lower"),
    ("sim.loop.events_per_host_s", "1/s", "higher"),
    ("sip.transaction.retransmissions", "count", "lower"),
    ("servers.proxy.rejected_500", "count", "lower"),
    ("servers.proxy.max_utilization", "ratio", "lower"),
    ("sim.network.dropped_messages", "count", "lower"),
    ("core.policy.stateful_share", "ratio", "higher"),
    ("sim.shard.windows", "count", "lower"),
    ("sim.shard.cross_messages", "count", "lower"),
    ("sim.shard.windows_per_cross_message", "ratio", "lower"),
    ("sim.shard.turbo_wall_s", "s", "lower"),
    ("sim.shard.speedup_vs_turbo", "x", "higher"),
    ("sim.shard.process_wall_s", "s", "lower"),
    ("sim.shard.process_speedup_vs_turbo", "x", "higher"),
    ("sim.shard.barrier_stall_fraction", "ratio", "lower"),
    ("harness.pool.jobs_effective", "count", "higher"),
    ("harness.pool.serial_wall_s", "s", "lower"),
    ("harness.pool.speedup", "x", "higher"),
    ("harness.pool.efficiency", "ratio", "higher"),
    ("harness.pool.spawn_s", "s", "lower"),
    ("harness.parallel.retried_chunks", "count", "lower"),
    ("harness.runcache.warm_wall_ms", "ms", "lower"),
    ("harness.runcache.hit_rate", "ratio", "higher"),
    ("harness.runcache.bytes_per_entry", "B", "lower"),
    ("harness.import_s", "s", "lower"),
    ("harness.build_s", "s", "lower"),
    ("harness.payload_us", "us", "lower"),
]

#: Unit costs measured by layers.py on public functions.
UNIT_COSTS = [
    ("sip.parser.parse_invite_us", "us"),
    ("sip.message.to_wire_us", "us"),
    ("sip.message.copy_us", "us"),
    ("sip.message.transaction_key_us", "us"),
    ("sip.transaction.client_lifecycle_us", "us"),
    ("sim.loop.heap_event_us", "us"),
    ("sim.loop.wheel_event_us", "us"),
    ("sim.loop.wheel_cancel_us", "us"),
    ("sim.cpu.submit_us", "us"),
    ("sim.network.send_us", "us"),
    ("sim.metrics.observe_us", "us"),
    ("core.policy.message_cost_us", "us"),
    ("core.lp.two_series_ms", "ms"),
    ("core.lp.mesh51_oracle_ms", "ms"),
    ("core.lp.topogen_mesh51_ms", "ms"),
    ("harness.parallel.spec_key_us", "us"),
    ("harness.runcache.put_us", "us"),
    ("harness.runcache.get_us", "us"),
]

PER_LAYER = (
    [{"name": f"{layer}.self_share", "unit": "ratio", "better": "lower"}
     for layer in LAYERS]
    + [{"name": f"{layer}.calls_per_call", "unit": "1/call",
        "better": "lower"} for layer in LAYERS]
    + [{"name": n, "unit": u, "better": b}
       for n, u, b in _TRACE + _COUNTERS + _SIMULATED]
    + [{"name": n, "unit": u, "better": "lower"} for n, u in UNIT_COSTS]
)

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
BETTER = {m["name"]: m["better"] for m in END_TO_END + PER_LAYER}
BOUNDS = {m["name"]: m["bound"] for m in END_TO_END}

#: Values that are a pure function of (commit, workload, seed, size).
_EXACT = {
    "sim_goodput_cps", "failed_share", "sim_invite_rt_p50_ms",
    "sim_invite_rt_p95_ms", "sim_invite_rt_count", "sim_call_fail_share",
    "paper_err_pct", "sim.loop.events", "sim.loop.events_per_call",
    "sip.transaction.retransmissions", "servers.proxy.rejected_500",
    "servers.proxy.max_utilization", "sim.network.dropped_messages",
    "core.policy.stateful_share", "sim.shard.windows",
    "sim.shard.cross_messages", "sim.shard.windows_per_cross_message",
    "harness.pool.jobs_effective", "harness.parallel.retried_chunks",
    "harness.runcache.hit_rate",
}


def is_exact(name: str, workload: str) -> bool:
    """Whether two runs at one seed must report the identical value.

    ``calls_per_call`` is an exact function-call count everywhere but
    on ``fig5_sweep``, whose traced parent polls a process pool (how
    often it wakes depends on the host).
    """
    if name.endswith(".calls_per_call"):
        return workload != "fig5_sweep"
    return name in _EXACT


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
