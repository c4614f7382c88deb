"""Run one scenario at one offered load and measure it the paper's way.

Section 6's method -- throughput counted at the SIPp *server* side
(calls completed at the :class:`~repro.servers.uas.AnsweringServer`),
response times collected at the client, CPU utilization from the
per-node busy time (their ``top`` logs), "#calls sent == #100 Trying
received" as the statefulness check (:attr:`RunResult.trying_ratio` is
~1.0 whenever the system claims to be stateful for all calls), a warmup
interval discarded before the window opens -- is written once, here:
:func:`read_counters` reads the window counters, :func:`window_partial`
differences two readings, :func:`assemble` folds partials into a
:class:`RunResult` payload plus extras.  A serial run assembles one
partial; the sharded engine (:mod:`repro.sim.shard`) one per shard.
docs/ARCHITECTURE.md ("What a window measures") defines every field.

All rates in the result are *paper-equivalent* cps (measured rate times
the scenario's scale factor).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.servartuka import ServartukaPolicy
from repro.sim.events import collector_off
from repro.sim.metrics import summarize
from repro.workloads.scenarios import Scenario


class RunResult:
    """Measurements from one (scenario, offered-load) run."""

    #: Feature snapshots a job output's extras carry only when the
    #: feature ran (observe=, control=, engine="sharded");
    #: from_job() attaches each (``None`` when absent).  Not part of
    #: the payload.
    SNAPSHOTS = ("obs", "control", "sharded")

    def __init__(self, scenario_name: str, offered_cps: float, duration: float):
        self.scenario_name = scenario_name
        self.offered_cps = offered_cps
        self.duration = duration
        self.throughput_cps = 0.0          # completed calls (UAS side)
        self.delivered_cps = 0.0           # INVITEs reaching the UAS
        self.attempted_cps = 0.0
        self.completed_uac_cps = 0.0
        self.failed_calls = 0
        self.retransmissions = 0
        self.server_busy_500 = 0
        self.dropped_messages = 0
        self.trying_ratio = 0.0
        self.stateful_coverage = 0.0
        self.invite_rt: Dict[str, float] = {}
        self.bye_rt: Dict[str, float] = {}
        self.proxy_utilization: Dict[str, float] = {}
        self.proxy_stateful_cps: Dict[str, float] = {}
        self.proxy_stateless_cps: Dict[str, float] = {}
        self.proxy_overloaded: Dict[str, bool] = {}
        self.obs = self.control = self.sharded = None

    @property
    def goodput_ratio(self) -> float:
        """Completed / offered; ~1 below saturation, <1 beyond it."""
        if self.offered_cps <= 0:
            return 0.0
        return self.throughput_cps / self.offered_cps

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario_name,
            "offered_cps": round(self.offered_cps, 1),
            "throughput_cps": round(self.throughput_cps, 1),
            "goodput_ratio": round(self.goodput_ratio, 4),
            "failed_calls": self.failed_calls,
            "retransmissions": self.retransmissions,
            "server_busy_500": self.server_busy_500,
            "trying_ratio": round(self.trying_ratio, 4),
            "invite_rt_ms": {k: round(v * 1e3, 2) for k, v in self.invite_rt.items()},
            "proxy_utilization": {
                k: round(v, 3) for k, v in self.proxy_utilization.items()
            },
        }

    def to_payload(self) -> Dict[str, object]:
        """Full-precision JSON-able dump (the parallel executor's wire
        and cache format).  Unlike :meth:`as_dict` nothing is rounded:
        ``from_payload(to_payload())`` reproduces every field bit-for-bit
        (JSON round-trips Python floats exactly)."""
        return {
            "scenario_name": self.scenario_name,
            "offered_cps": self.offered_cps,
            "duration": self.duration,
            "throughput_cps": self.throughput_cps,
            "delivered_cps": self.delivered_cps,
            "attempted_cps": self.attempted_cps,
            "completed_uac_cps": self.completed_uac_cps,
            "failed_calls": self.failed_calls,
            "retransmissions": self.retransmissions,
            "server_busy_500": self.server_busy_500,
            "dropped_messages": self.dropped_messages,
            "trying_ratio": self.trying_ratio,
            "stateful_coverage": self.stateful_coverage,
            "invite_rt": dict(self.invite_rt),
            "bye_rt": dict(self.bye_rt),
            "proxy_utilization": dict(self.proxy_utilization),
            "proxy_stateful_cps": dict(self.proxy_stateful_cps),
            "proxy_stateless_cps": dict(self.proxy_stateless_cps),
            "proxy_overloaded": dict(self.proxy_overloaded),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunResult":
        result = cls(
            payload["scenario_name"],
            payload["offered_cps"],
            payload["duration"],
        )
        for name in (
            "throughput_cps", "delivered_cps", "attempted_cps",
            "completed_uac_cps", "failed_calls", "retransmissions",
            "server_busy_500", "dropped_messages", "trying_ratio",
            "stateful_coverage", "invite_rt", "bye_rt",
            "proxy_utilization", "proxy_stateful_cps",
            "proxy_stateless_cps", "proxy_overloaded",
        ):
            setattr(result, name, payload[name])
        return result

    @classmethod
    def from_job(cls, output: Dict[str, object]) -> "RunResult":
        """The result of a ``scenario`` job's ``{"result", "extras"}``
        output, with the feature snapshots its extras hold attached."""
        result = cls.from_payload(output["result"])
        extras = output["extras"]
        for name in cls.SNAPSHOTS:
            setattr(result, name, extras.get(name))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RunResult {self.scenario_name} offered={self.offered_cps:.0f} "
            f"throughput={self.throughput_cps:.0f}cps>"
        )


# ---------------------------------------------------------------------------
# What a window measures: read, difference, assemble
# ---------------------------------------------------------------------------
# A caller that owns only part of the node space (one shard of
# repro.sim.shard) passes the node names it owns; ``owned=None`` owns
# everything.  Generators and servers are keyed by their index in the
# scenario's lists and proxies by name, so assemble() can put partials
# back in the scenario's own iteration order.
def _owned(nodes, owned):
    return [
        (i, node) for i, node in enumerate(nodes)
        if owned is None or node.name in owned
    ]


def _owned_proxies(scenario: Scenario, owned):
    return [
        (name, proxy) for name, proxy in scenario.proxies.items()
        if owned is None or name in owned
    ]


def read_counters(scenario: Scenario, owned=None) -> dict:
    """The window counters of the owned nodes, as of ``loop.now``."""
    return {
        "time": scenario.loop.now,
        "gen": {
            i: (
                g.calls_attempted,
                g.calls_completed,
                g.calls_failed,
                g.calls_with_100,
                g.retransmissions(),
                g.metrics.histogram("invite_response_time").count,
                g.metrics.histogram("bye_response_time").count,
            )
            for i, g in _owned(scenario.generators, owned)
        },
        "uas": {
            i: (s.calls_received, s.calls_completed)
            for i, s in _owned(scenario.servers, owned)
        },
        "proxy": {
            name: (
                p.cpu.busy_seconds,
                p.metrics.counter("rejected_500").value,
                p.metrics.counter("messages_dropped_overload").value,
                p.metrics.counter("invites_stateful").value,
                p.metrics.counter("invites_stateless").value,
            )
            for name, p in _owned_proxies(scenario, owned)
        },
    }


def window_partial(
    scenario: Scenario, before: dict, after: dict, owned=None
) -> dict:
    """What the owned nodes contribute to the window ``before..after``.

    Taken once the run is over: counter deltas between the two readings,
    every response-time sample past the warm-up count (calls answered
    during the drain still belong to the window that launched them),
    and the end-of-run values the extras report.  Plain picklable data:
    the sharded process driver sends it through a pipe.
    """
    gens = {}
    for i, g in _owned(scenario.generators, owned):
        b, a = before["gen"][i], after["gen"][i]
        gens[i] = {
            # attempted, completed, failed, with_100, retransmissions
            "deltas": [a[k] - b[k] for k in range(5)],
            "invite_samples":
                g.metrics.histogram("invite_response_time").samples[b[5]:],
            "bye_samples":
                g.metrics.histogram("bye_response_time").samples[b[6]:],
        }
    proxies = {}
    for name, p in _owned_proxies(scenario, owned):
        b, a = before["proxy"][name], after["proxy"][name]
        proxies[name] = {
            "busy": a[0] - b[0],
            "r500": a[1] - b[1],
            "dropped": a[2] - b[2],
            "sf": a[3] - b[3],
            "sl": a[4] - b[4],
            "overloaded": (
                p.policy.is_overloaded
                if isinstance(p.policy, ServartukaPolicy) else None
            ),
            "cpu_components": dict(p.cpu.component_seconds),
        }
    return {
        "gens": gens,
        # received and completed in the window, completed over the run
        "uas": {
            i: [
                after["uas"][i][0] - before["uas"][i][0],
                after["uas"][i][1] - before["uas"][i][1],
                s.calls_completed,
            ]
            for i, s in _owned(scenario.servers, owned)
        },
        "proxies": proxies,
        "events": scenario.loop.events_processed,
        # Run metadata every owner agrees on; assemble() reads the
        # first partial's copy.
        "elapsed": after["time"] - before["time"],
        "scenario_name": scenario.name,
        "offered_cps": scenario.offered_paper_cps,
        "scale": scenario.config.scale,
        "proxy_order": list(scenario.proxies),
    }


def assemble(partials: List[dict]) -> dict:
    """Fold window partials into ``{"result", "extras"}``.

    The one place a run's measurements are computed; a serial run is
    the one-partial case.  Integer deltas sum order-free, response-time
    samples concatenate in generator order before one sort, and every
    proxy has a single owner, so the output does not depend on how the
    nodes were split.
    """
    meta = partials[0]
    elapsed = meta["elapsed"]
    scale = meta["scale"]
    gens: Dict[int, dict] = {}
    uas: Dict[int, list] = {}
    proxies: Dict[str, dict] = {}
    for partial in partials:
        gens.update(partial["gens"])
        uas.update(partial["uas"])
        proxies.update(partial["proxies"])
    attempted, completed, failed, got_100, retransmissions = (
        sum(gen["deltas"][k] for gen in gens.values()) for k in range(5)
    )

    result = RunResult(meta["scenario_name"], meta["offered_cps"], elapsed)
    result.throughput_cps = sum(v[1] for v in uas.values()) / elapsed * scale
    result.delivered_cps = sum(v[0] for v in uas.values()) / elapsed * scale
    result.attempted_cps = attempted / elapsed * scale
    result.completed_uac_cps = completed / elapsed * scale
    result.failed_calls = failed
    result.retransmissions = retransmissions
    result.trying_ratio = (got_100 / attempted) if attempted else 0.0
    # Paper's statefulness check restricted to *admitted* calls: ones the
    # overloaded system shed with a 500 never saw a dialog at all.
    admitted = attempted - failed
    result.stateful_coverage = (got_100 / admitted) if admitted > 0 else 0.0

    invite_samples: List[float] = []
    bye_samples: List[float] = []
    for i in sorted(gens):
        invite_samples.extend(gens[i]["invite_samples"])
        bye_samples.extend(gens[i]["bye_samples"])
    result.invite_rt = summarize(invite_samples)
    result.bye_rt = summarize(bye_samples)

    for name in meta["proxy_order"]:
        entry = proxies[name]
        result.proxy_utilization[name] = min(1.0, entry["busy"] / elapsed)
        result.server_busy_500 += entry["r500"]
        result.dropped_messages += entry["dropped"]
        result.proxy_stateful_cps[name] = entry["sf"] / elapsed * scale
        result.proxy_stateless_cps[name] = entry["sl"] / elapsed * scale
        if entry["overloaded"] is not None:
            result.proxy_overloaded[name] = entry["overloaded"]

    extras = {
        "events": sum(partial["events"] for partial in partials),
        "uas_calls_completed": [uas[i][2] for i in sorted(uas)],
        "proxy_cpu_components": {
            name: proxies[name]["cpu_components"] for name in sorted(proxies)
        },
    }
    return {"result": result.to_payload(), "extras": extras}


def _drive(
    scenario: Scenario, duration: float, warmup: float, drain: float
) -> Tuple[dict, dict]:
    """Run warm-up, window and drain; return the window's two readings."""
    if duration <= 0 or warmup < 0:
        raise ValueError("need duration > 0, warmup >= 0")
    for name, value in (("duration", duration), ("warmup", warmup),
                        ("drain", drain)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value}")
    scenario.start()
    loop = scenario.loop
    with collector_off():
        loop.run_until(loop.now + warmup)
        before = read_counters(scenario)
        loop.run_until(loop.now + duration)
        after = read_counters(scenario)
        scenario.stop_load()
        if drain > 0:
            loop.run_until(loop.now + drain)
    return before, after


def measure(
    scenario: Scenario, duration: float, warmup: float, drain: float
) -> dict:
    """:func:`run_scenario` as a ``{"result", "extras"}`` job output."""
    before, after = _drive(scenario, duration, warmup, drain)
    return assemble([window_partial(scenario, before, after)])


def run_scenario(
    scenario: Scenario,
    duration: float = 20.0,
    warmup: float = 5.0,
    drain: float = 0.0,
) -> RunResult:
    """Run a scenario and measure over [warmup, warmup + duration].

    ``drain`` optionally lets in-flight calls settle after the window
    closes (it does not change the measured rates, which come from the
    counter deltas inside the window).
    """
    return RunResult.from_payload(
        measure(scenario, duration, warmup, drain)["result"]
    )

# ---------------------------------------------------------------------------
# The run fingerprint (differential batteries): sample, collect, assemble
# ---------------------------------------------------------------------------
def myshare_sample(scenario: Scenario, owned=None) -> dict:
    """Current myshare per (owned SERvartuka proxy, downstream path)."""
    sample = {}
    for name, proxy in sorted(_owned_proxies(scenario, owned)):
        policy = proxy.policy
        if isinstance(policy, ServartukaPolicy):
            sample[name] = {
                key: stats.myshare
                for key, stats in sorted(policy.paths.items())
            }
    return sample


def fingerprint_partial(
    scenario: Scenario, trajectory: List[dict], owned=None
) -> dict:
    """Everything the owned nodes of a finished run observed:
    ``trajectory`` (the caller's mid-run :func:`myshare_sample` list),
    every node's deep metrics snapshot, call outcomes, and the loop's
    event and packet totals."""
    registries = {
        name: proxy.metrics.snapshot()
        for name, proxy in sorted(_owned_proxies(scenario, owned))
    }
    # Registrars and B2BUAs add keys only where a scenario has them.
    for prefix, nodes in (
        ("uac", scenario.generators), ("uas", scenario.servers),
        ("reg", scenario.registrars), ("b2b", scenario.b2buas),
    ):
        for _i, node in _owned(nodes, owned):
            registries[f"{prefix}:{node.name}"] = node.metrics.snapshot()
    return {
        "myshare": trajectory,
        "registries": registries,
        "uac": {
            i: [g.name, g.calls_attempted, g.calls_completed, g.calls_failed]
            for i, g in _owned(scenario.generators, owned)
        },
        "uas": {
            i: [s.name, s.calls_received, s.calls_completed]
            for i, s in _owned(scenario.servers, owned)
        },
        "events": scenario.loop.events_processed,
        "packets": [
            scenario.network.packets_sent,
            scenario.network.packets_dropped,
        ],
    }


def assemble_fingerprint(partials: List[dict]) -> dict:
    """Fold fingerprint partials into the ``fingerprint`` job's output."""
    trajectory = []
    for samples in zip(*(partial["myshare"] for partial in partials)):
        merged: Dict[str, dict] = {}
        for sample in samples:
            merged.update(sample)
        trajectory.append(dict(sorted(merged.items())))
    registries: Dict[str, dict] = {}
    uac: Dict[int, list] = {}
    uas: Dict[int, list] = {}
    for partial in partials:
        registries.update(partial["registries"])
        uac.update(partial["uac"])
        uas.update(partial["uas"])
    return {
        "myshare_trajectory": trajectory,
        "call_outcomes": {
            "uac": {uac[i][0]: uac[i][1:] for i in sorted(uac)},
            "uas": {uas[i][0]: uas[i][1:] for i in sorted(uas)},
        },
        "registries": registries,
        "events": sum(partial["events"] for partial in partials),
        "packets": [
            sum(partial["packets"][k] for partial in partials)
            for k in range(2)
        ],
    }


def fingerprint_scenario(
    scenario: Scenario, run_for: float, slices: int = 6, drain: float = 0.0
) -> dict:
    """Drive ``scenario`` in ``slices`` equal slices of ``run_for``,
    sampling myshare at every boundary (so transient planning states
    are compared, not just the final one), drain, and fingerprint it."""
    scenario.start()
    trajectory = []
    with collector_off():
        for i in range(1, slices + 1):
            scenario.loop.run_until(run_for * i / slices)
            trajectory.append(myshare_sample(scenario))
        scenario.stop_load()
        scenario.loop.run_until(run_for + drain)
    return assemble_fingerprint([fingerprint_partial(scenario, trajectory)])
