"""Parallel sweep executor with deterministic merging and run caching.

Every artifact this repository produces -- the figure load sweeps, the
ablation and resilience campaigns -- is a grid of fully independent
``(scenario, offered load, seed, engine)`` simulation runs, each a
deterministic function of its spec.  This module executes such grids
across ``multiprocessing`` workers and stores each point in the
content-addressed :class:`~repro.harness.runcache.RunCache`, under one
contract:

    **parallelism and caching may only change wall-clock time, never a
    single metric.**

The pieces:

- :class:`RunSpec` -- a declarative, picklable description of one run
  (job kind + a JSON payload).  Its :meth:`~RunSpec.key` is a SHA-256
  over the canonical JSON (sorted keys, numbers normalized to floats),
  so a spec hashes identically regardless of dict insertion order or
  int-vs-float spelling of the same value.
- :class:`SpecTemplate` -- a spec with the offered load left open;
  ``template.at(load, duration, warmup)`` closes it.  This is what lets
  :func:`~repro.harness.saturation.sweep_loads` fan a load list out.
- :class:`ExecutionContext` / :func:`execution` -- the ambient settings
  (worker count, cache, progress streaming) consulted by every
  harness entry point; the CLI's ``--jobs/--no-cache`` flags map to it.
  The context also owns the worker pool: made on the first batch that
  needs one, reused by every later batch, shut down when
  ``execution()`` exits or the context is closed or collected.
- :func:`run_specs` -- execute a batch: resolve cache hits, dedupe
  identical specs within the batch, chunk the misses across the context's
  workers, retry a crashed worker's chunks once on a
  fresh pool (a job's own ``ValueError``, ``UnsupportedCombination``
  included, or ``TypeError`` is a configuration error and propagates
  unretried), and merge results back **in spec order** so the output is
  bit-identical to a serial run.

On Linux the workers are forked from the parent; elsewhere they are
spawned, Python's own default there.  A forked worker starts with a copy
of the parent's heap, and that is safe because nothing in it can reach a
result:

- every ``Scenario.__init__`` sets the engine-mode globals
  (``set_engine_mode``) in both directions, so a run takes its rung
  from its spec, never from the parent;
- the parse and URI interning tables are memo caches, and the engine
  differential battery already holds that their hits do not change a
  result, whatever filled them;
- every random draw comes from a per-scenario ``random.Random`` seeded
  from the spec (:mod:`repro.sim.rng`), never from the module-level
  generator;
- ``ProcessPoolExecutor`` forks all of its workers before it starts its
  manager thread, and a context shuts its old pool down before it starts
  a new one, so no pool thread is running when a worker forks (Python
  3.12's fork-with-threads ``DeprecationWarning`` stays silent).

Each worker freezes what it inherited (``gc.freeze`` as the pool's
initializer), so the collector never scans the parent's heap.  The
cyclic collector is off while a run executes
(:func:`repro.sim.events.collector_off`), so the worker collects the
finished scenario's reference cycles before it starts the next run, and
a worker that serves a whole sweep stays as small as one that served a
single run.  Result payloads are normalized through a
JSON round-trip before they are returned *or* cached, so a warm-cache
result is byte-identical to the cold run that produced it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.runcache import RunCache
from repro.harness.runner import RunResult, fingerprint_scenario, measure
from repro.sim.events import collector_off
from repro.workloads.scenarios import (
    ScenarioConfig,
    b2bua_chain,
    flash_crowd,
    generated,
    heavy_tail,
    internal_external,
    n_series,
    parallel_fork,
    register_churn,
    single_proxy,
)

# The pool's machinery (concurrent.futures, multiprocessing) is imported
# by the first batch that starts a pool, not by every process that
# imports this module: an inline run and a pool worker never need it.
if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Default multiprocessing start method.  ``fork`` on Linux: a forked
#: worker is ready in milliseconds where a spawned one re-imports the
#: simulator first (the module docstring says why forking is safe here).
#: Elsewhere ``spawn``, Python's own default on macOS and Windows.
#: ``REPRO_MP_START`` overrides both.
def default_start_method() -> str:
    return os.environ.get(
        "REPRO_MP_START", "fork" if sys.platform == "linux" else "spawn")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (``taskset``, a container's cpuset), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------
def _canon(value):
    """Normalize a payload for hashing: sorted keys, numbers as floats."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _canon(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"unhashable spec payload value: {value!r}")


def canonical_json(payload) -> str:
    """Stable serialization: key order and ``1`` vs ``1.0`` don't matter."""
    return json.dumps(_canon(payload), sort_keys=True, separators=(",", ":"))


def spec_key(kind: str, payload) -> str:
    digest = hashlib.sha256()
    digest.update(canonical_json({"kind": kind, "payload": payload}).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One independent run: a job kind plus its JSON-able payload.

    ``label`` is for progress/error display only and never participates
    in the hash.
    """

    kind: str
    payload: dict
    label: str = ""

    def key(self) -> str:
        return spec_key(self.kind, self.payload)

    def describe(self) -> str:
        return self.label or f"{self.kind}:{self.key()[:12]}"


class SpecTemplate:
    """A scenario spec with the offered load left open.

    ``SpecTemplate("n_series", config, n=2, policy="servartuka")`` plus
    ``template.at(9000, duration=8, warmup=3)`` yields the
    :class:`RunSpec` for that load point.  ``config`` may be a
    :class:`~repro.workloads.scenarios.ScenarioConfig` or its payload
    dict.
    """

    def __init__(self, builder: str, config, label: str = "", **kwargs):
        if builder not in SCENARIO_BUILDERS:
            raise ValueError(
                f"unknown scenario builder {builder!r}; "
                f"one of {sorted(SCENARIO_BUILDERS)}"
            )
        if isinstance(config, ScenarioConfig):
            config = config.to_payload()
        self.builder = builder
        self.config = config
        self.kwargs = dict(kwargs)
        self.label = label or builder

    def at(
        self,
        rate: float,
        duration: float,
        warmup: float,
        drain: float = 0.0,
    ) -> RunSpec:
        payload = {
            "builder": self.builder,
            "kwargs": dict(self.kwargs, rate=rate),
            "config": self.config,
            "duration": duration,
            "warmup": warmup,
            "drain": drain,
        }
        return RunSpec(
            kind="scenario",
            payload=payload,
            label=f"{self.label}@{rate:.0f}",
        )


# ---------------------------------------------------------------------------
# Job kinds (everything a worker knows how to execute)
# ---------------------------------------------------------------------------
SCENARIO_BUILDERS: Dict[str, Callable] = {
    "single_proxy": single_proxy,
    "n_series": n_series,
    "internal_external": internal_external,
    "parallel_fork": parallel_fork,
    "generated": generated,
    "register_churn": register_churn,
    "b2bua_chain": b2bua_chain,
    "flash_crowd": flash_crowd,
    "heavy_tail": heavy_tail,
}


def build_scenario(payload: dict):
    """Rebuild the scenario a ``scenario``/``fingerprint`` spec describes."""
    config = ScenarioConfig.from_payload(payload["config"])
    builder = SCENARIO_BUILDERS[payload["builder"]]
    return builder(config=config, **payload["kwargs"])


def scenario_job(
    scenario, duration: float, warmup: float, drain: float
) -> dict:
    """Measure a live scenario into a ``scenario`` job's output:
    :func:`~repro.harness.runner.measure` plus the feature snapshots."""
    output = measure(scenario, duration, warmup, drain)
    extras = output["extras"]
    # Key is only present under observe=, so observe-off extras (and
    # their cache entries) are byte-for-byte what they were before.
    observer = getattr(scenario, "observer", None)
    if observer is not None:
        extras["obs"] = observer.snapshot()
    # Same contract for overload control: the key exists only when some
    # proxy actually carries a controller, so control=None runs (and
    # their cache entries) are byte-for-byte what they were before.
    control = control_snapshot(scenario)
    if control is not None:
        extras["control"] = control
    return output


def control_snapshot(scenario) -> Optional[dict]:
    """Overload-control observables for one finished scenario: per-proxy
    stats + full decision traces, per-UAC feedback accounting.  ``None``
    when no proxy carries a controller."""
    controlled = {
        name: proxy
        for name, proxy in sorted(scenario.proxies.items())
        if getattr(proxy, "control", None) is not None
    }
    if not controlled:
        return None
    return {
        "proxies": {
            name: {
                "policy": proxy.control.kind,
                "stats": proxy.control.stats(),
                "decisions": list(proxy.control.decision_log),
            }
            for name, proxy in controlled.items()
        },
        "generators": {
            generator.name: {
                "attempted": generator.calls_attempted,
                "completed": generator.calls_completed,
                "failed": generator.calls_failed,
                "retry_after_received":
                    generator.metrics.counter("retry_after_received").value,
                "suppressed_backoff":
                    generator.metrics.counter(
                        "calls_suppressed_backoff").value,
            }
            for generator in scenario.generators
        },
    }


def _job_scenario(payload: dict) -> dict:
    if payload["config"].get("engine") == "sharded":
        # The sharded engine owns the whole start/measure cycle
        # (repro.sim.shard); it returns the same result/extras shape.
        from repro.sim.shard import run_sharded_scenario

        return run_sharded_scenario(payload)
    return scenario_job(
        build_scenario(payload),
        duration=payload["duration"],
        warmup=payload["warmup"],
        drain=payload.get("drain", 0.0),
    )


def _job_fingerprint(payload: dict) -> dict:
    """Full observable fingerprint of a run (differential batteries)."""
    if payload["config"].get("engine") == "sharded":
        from repro.sim.shard import run_sharded_fingerprint

        return run_sharded_fingerprint(payload)
    return fingerprint_scenario(
        build_scenario(payload),
        payload["run_for"],
        slices=int(payload.get("slices", 6)),
        drain=payload.get("drain", 0.0),
    )


def _job_resilience(payload: dict) -> dict:
    from repro.harness.resilience import (
        ResilienceParams,
        _measure,
        build_resilience_scenario,
    )

    params = ResilienceParams.from_payload(payload["params"])
    placement = payload["placement"]
    scenario = build_resilience_scenario(placement, params)
    scenario.start()
    with collector_off():
        scenario.loop.run_until(params.run_for)
        scenario.stop_load()
        scenario.loop.run_until(params.run_for + params.drain)
    return {"outcome": _measure(scenario, placement, params).to_payload()}


JOBS: Dict[str, Callable[[dict], dict]] = {
    "scenario": _job_scenario,
    "fingerprint": _job_fingerprint,
    "resilience": _job_resilience,
}


def _normalize(payload: dict) -> dict:
    """JSON round-trip so fresh, pooled and cached results are one shape."""
    return json.loads(json.dumps(payload))


def _execute_chunk(tasks: List[Tuple[int, str, dict]]) -> List[Tuple[int, dict]]:
    """Worker entry point: run a chunk of (slot, kind, payload) tasks."""
    out = []
    for slot, kind, payload in tasks:
        out.append((slot, _normalize(JOBS[kind](payload))))
        # No event leaves a cycle behind, but the scenario graph itself
        # is one (loop <-> nodes <-> timers), and the job ran it with the
        # collector off, so a process running jobs back to back would
        # grow by a scenario per job.  Reclaim it before the next one is
        # built.
        gc.collect()
    return out


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------
@dataclass
class ExecutionStats:
    """Per-context accounting (what the CLI summarizes after a command)."""

    runs: int = 0
    #: Specs read from the disk run cache.
    cache_hits: int = 0
    #: Specs answered by the context's in-process memo (a repeat of a
    #: spec an earlier batch already resolved).
    memo_hits: int = 0
    deduped: int = 0
    executed: int = 0
    retried_chunks: int = 0
    elapsed: float = 0.0

    def hit_rate(self) -> float:
        """Disk hits over the specs that had to go to disk or run."""
        lookups = self.runs - self.memo_hits - self.deduped
        return self.cache_hits / lookups if lookups else 0.0

    def summary(self) -> str:
        return (
            f"runs={self.runs} cache_hits={self.cache_hits} "
            f"hit_rate={self.hit_rate() * 100:.1f}% "
            f"memo_hits={self.memo_hits} deduped={self.deduped} "
            f"executed={self.executed} elapsed={self.elapsed:.1f}s"
        )


def clamp_jobs(jobs: int, force: bool = False) -> int:
    """Clamp a worker count to the CPUs this process may use.

    The workers are CPU-bound simulations: oversubscribing cores only
    adds context-switch overhead and memory pressure, and a stray
    ``--jobs 200`` can OOM a CI runner.  A warning goes to stderr so
    the clamp is never silent; ``force=True`` is the escape hatch for
    the rare deliberate oversubscription (e.g. measuring scheduler
    behavior).
    """
    cpus = usable_cpus()
    if force or jobs <= cpus:
        return jobs
    print(
        f"[repro] --jobs {jobs} exceeds {cpus} available CPUs; "
        f"clamping to {cpus} (use force to override)",
        file=sys.stderr,
    )
    return cpus


class ExecutionContext:
    """Ambient executor settings: worker count, cache, progress.

    ``jobs=1`` executes inline (no pool) through exactly the same job
    functions and normalization, which is what makes the parallel and
    serial paths bit-identical by construction.  The in-memory ``memo``
    deduplicates repeated specs across batches within one invocation
    even when the disk cache is off.

    With ``jobs > 1`` the context owns one worker pool, made by the
    first batch that needs it and reused by every later one.
    :meth:`close` (or leaving a ``with context:`` / ``execution()``
    block) stops the workers and waits for them; a context that is
    never closed stops them when it is garbage-collected.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = False,
        cache_dir: Optional[str] = None,
        start_method: Optional[str] = None,
        progress: bool = False,
        chunk_size: Optional[int] = None,
        force: bool = False,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = clamp_jobs(jobs, force=force)
        self.cache = RunCache(cache_dir) if use_cache else None
        self.start_method = start_method or default_start_method()
        self.progress = progress
        self.chunk_size = chunk_size
        self.memo: Dict[str, dict] = {}
        self.stats = ExecutionStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The context's pool, started on first use."""
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(self.start_method),
                # A forked worker's collector would otherwise scan the
                # parent's whole heap at every per-job collect.
                initializer=gc.freeze,
            )
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=True)
        return self._pool

    def close(self) -> None:
        """Stop the workers and wait for them to exit.  Idempotent; a
        later batch on this context starts a fresh pool."""
        if self._pool is not None:
            self._pool = None
            self._pool_finalizer()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def summary(self) -> str:
        parts = [f"[repro] {self.stats.summary()}", f"jobs={self.jobs}"]
        if self.cache is not None:
            parts.append(f"cache={self.cache.root}")
        return " ".join(parts)


_DEFAULT_CONTEXT = ExecutionContext()
_CONTEXT_STACK: List[ExecutionContext] = []


def current_context() -> ExecutionContext:
    return _CONTEXT_STACK[-1] if _CONTEXT_STACK else _DEFAULT_CONTEXT


@contextmanager
def execution(
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    start_method: Optional[str] = None,
    progress: bool = False,
    chunk_size: Optional[int] = None,
    force: bool = False,
):
    """Install an :class:`ExecutionContext` for the enclosed harness
    calls; its worker pool (if one was started) is shut down on exit."""
    context = ExecutionContext(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        start_method=start_method,
        progress=progress,
        chunk_size=chunk_size,
        force=force,
    )
    _CONTEXT_STACK.append(context)
    try:
        yield context
    finally:
        _CONTEXT_STACK.pop()
        context.close()


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
class _Progress:
    """Streams ``completed/total`` + cache hits + ETA lines to stderr."""

    def __init__(self, enabled: bool, total: int, hits: int):
        self.enabled = enabled and total > 0
        self.total = total
        self.hits = hits
        self.done = 0
        self.started = time.monotonic()
        self.step = max(1, total // 10)
        if self.enabled and self.hits:
            self._emit(eta=None)

    def advance(self, count: int = 1) -> None:
        self.done += count
        if not self.enabled:
            return
        if self.done < self.total and self.done % self.step:
            return
        elapsed = time.monotonic() - self.started
        remaining = self.total - self.hits - self.done
        eta = None
        if self.done and remaining > 0:
            eta = elapsed / self.done * remaining
        self._emit(eta)

    def _emit(self, eta: Optional[float]) -> None:
        completed = min(self.total, self.hits + self.done)
        line = f"[parallel] {completed}/{self.total} runs"
        if self.hits:
            line += f" ({self.hits} cache hits)"
        if eta is not None:
            line += f" ETA {eta:.0f}s"
        print(line, file=sys.stderr, flush=True)


#: What a job raises for a run that cannot work as configured (a zero
#: window, an ``UnsupportedCombination``).  Running it again would raise
#: again, so these leave the executor at once, unwrapped and unretried;
#: the one retry is for what a second attempt can cure (a dead worker).
CONFIG_ERRORS = (ValueError, TypeError)


def _chunks(tasks: List[tuple], size: int) -> List[List[tuple]]:
    return [tasks[i:i + size] for i in range(0, len(tasks), size)]


def _run_pool(
    context: ExecutionContext,
    tasks: List[Tuple[int, str, dict]],
    labels: Dict[int, str],
    progress: _Progress,
) -> Dict[int, dict]:
    """Fan tasks across the context's workers; chunks that fail get
    exactly one retry, on a fresh pool."""
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    jobs = min(context.jobs, len(tasks))
    size = context.chunk_size or max(1, math.ceil(len(tasks) / (jobs * 4)))
    chunks = _chunks(tasks, size)
    done: Dict[int, dict] = {}

    for last_attempt in (False, True):
        pool = context._worker_pool()
        futures = {}
        error: Optional[BaseException] = None
        try:
            for chunk in chunks:
                futures[pool.submit(_execute_chunk, chunk)] = chunk
        except BrokenProcessPool as exc:
            # A worker died before everything was queued (or while the
            # pool sat idle between batches): the rest fails unsent.
            error = exc
        failed = chunks[len(futures):]
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                done.update(future.result())
            except CONFIG_ERRORS:
                # The pool is healthy; only what it has not started is
                # pointless now.
                for unfinished in futures:
                    unfinished.cancel()
                raise
            except Exception as exc:
                # A dead worker poisons its whole pool: every chunk not
                # yet finished lands here along with the culprit.
                failed.append(chunk)
                error = exc
            else:
                progress.advance(len(chunk))
        if not failed:
            break
        # Never hand a pool that failed to the retry or to a later batch.
        context.close()
        if last_attempt:
            names = ", ".join(
                labels[slot] for chunk in failed for slot, _, _ in chunk)
            raise RuntimeError(
                f"run chunk failed after one retry: [{names}]"
            ) from error
        context.stats.retried_chunks += len(failed)
        chunks = failed
    return done


def _run_inline(
    context: ExecutionContext,
    tasks: List[Tuple[int, str, dict]],
    labels: Dict[int, str],
    progress: _Progress,
) -> Dict[int, dict]:
    done: Dict[int, dict] = {}
    for task in tasks:
        slot, _kind, _payload = task
        try:
            results = _execute_chunk([task])
        except CONFIG_ERRORS:
            raise
        except Exception as exc:
            context.stats.retried_chunks += 1
            try:
                results = _execute_chunk([task])
            except Exception:
                raise RuntimeError(
                    f"run failed after one retry: {labels[slot]}"
                ) from exc
        done[results[0][0]] = results[0][1]
        progress.advance(1)
    return done


def run_specs(
    specs: Sequence[RunSpec],
    context: Optional[ExecutionContext] = None,
) -> List[dict]:
    """Execute a batch of specs; returns result payloads in spec order.

    Identical specs (same canonical hash) are executed once per
    invocation; previously cached specs are not executed at all.  The
    returned payloads are JSON-normalized, so a cache hit, an inline
    run and a pooled run of the same spec are indistinguishable.
    """
    context = context or current_context()
    specs = list(specs)
    started = time.monotonic()
    stats = context.stats
    stats.runs += len(specs)

    keys = [spec.key() for spec in specs]
    results: List[Optional[dict]] = [None] * len(specs)

    # Resolve memo + disk-cache hits; collect unique misses.  A miss's
    # slot is its position in both ``pending`` and ``pending_specs``.
    pending: List[Tuple[int, str, dict]] = []     # (slot, kind, payload)
    pending_specs: Dict[str, RunSpec] = {}        # key -> spec
    labels: Dict[int, str] = {}
    memo_hits = disk_hits = 0
    for spec, key in zip(specs, keys):
        if key in context.memo:
            memo_hits += 1
            continue
        if key in pending_specs:
            stats.deduped += 1
            continue
        cached = None
        if context.cache is not None:
            cached = context.cache.get(key)
        if cached is not None:
            context.memo[key] = cached
            disk_hits += 1
            continue
        slot = len(pending)
        labels[slot] = spec.describe()
        pending.append((slot, spec.kind, dict(spec.payload)))
        pending_specs[key] = spec
    stats.memo_hits += memo_hits
    stats.cache_hits += disk_hits

    progress = _Progress(context.progress, len(specs), memo_hits + disk_hits)
    if pending:
        if context.jobs > 1 and len(pending) > 1:
            done = _run_pool(context, pending, labels, progress)
        else:
            done = _run_inline(context, pending, labels, progress)
        stats.executed += len(pending)
        for slot, (key, spec) in enumerate(pending_specs.items()):
            payload = done[slot]
            context.memo[key] = payload
            if context.cache is not None:
                context.cache.put(key, spec.kind, _normalize(spec.payload),
                                  payload)

    for index, key in enumerate(keys):
        results[index] = context.memo[key]
    stats.elapsed += time.monotonic() - started
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------
def scenario_spec(
    builder: str,
    rate: float,
    config,
    duration: float,
    warmup: float,
    drain: float = 0.0,
    label: str = "",
    **kwargs,
) -> RunSpec:
    """One-off scenario spec (``SpecTemplate`` closed over one load)."""
    template = SpecTemplate(builder, config, label=label or builder, **kwargs)
    return template.at(rate, duration, warmup, drain)


def run_scenario_specs(
    specs: Sequence[RunSpec],
    context: Optional[ExecutionContext] = None,
) -> List[RunResult]:
    """Execute scenario specs and rebuild their :class:`RunResult`\\ s."""
    payloads = run_specs(specs, context=context)
    return [RunResult.from_payload(p["result"]) for p in payloads]
