"""Worker-pool lifecycle: one pool per execution context.

The pool belongs to the :class:`ExecutionContext`: batches share its
workers, a dead worker costs one retry on a fresh pool, nothing
outlives the context, and a process that runs jobs back to back does
not grow.  The pooled tests swap ``_execute_chunk`` for a probe that
reports the serving PID (and can kill its worker), so they exercise
the executor, not the simulator; each runs under both start methods.
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    ExecutionContext,
    RunSpec,
    execution,
    run_specs,
)

START_METHODS = ["spawn", "fork"]


def _probe_chunk(tasks):
    """Stand-in for ``parallel._execute_chunk``, run inside the workers
    (pickled by reference, so it must stay a module-level function)."""
    out = []
    for slot, _kind, payload in tasks:
        tombstone = payload.get("die_once")
        if tombstone and not os.path.exists(tombstone):
            open(tombstone, "w").close()
            os._exit(1)
        if payload.get("die_always"):
            os._exit(1)
        out.append((slot, {"n": payload["n"], "pid": os.getpid()}))
    return out


def _probes(numbers, **extra):
    return [RunSpec("probe", dict(extra, n=n), label=f"probe-{n}")
            for n in numbers]


@pytest.fixture
def new_workers(monkeypatch):
    """Route chunks to the probe; returns a callable listing the worker
    processes started since the test began."""
    monkeypatch.setattr(parallel, "_execute_chunk", _probe_chunk)
    before = {p.pid for p in multiprocessing.active_children()}

    def started():
        return [p for p in multiprocessing.active_children()
                if p.pid not in before]

    return started


@pytest.mark.parametrize("start_method", START_METHODS)
def test_batches_share_workers_and_none_outlive_the_block(
        new_workers, start_method):
    with execution(jobs=2, start_method=start_method, force=True,
                   chunk_size=1) as context:
        first = run_specs(_probes(range(4)))
        workers = new_workers()
        second = run_specs(_probes(range(4, 8)))
        assert [r["n"] for r in first + second] == list(range(8))
        assert context.stats.executed == 8

        pids = {p.pid for p in workers}
        assert 1 <= len(pids) <= 2
        assert {r["pid"] for r in first} <= pids
        assert {r["pid"] for r in second} <= pids
        assert {p.pid for p in new_workers()} == pids  # no second pool
    assert not any(p.is_alive() for p in workers)
    assert new_workers() == []


@pytest.mark.parametrize("start_method", START_METHODS)
def test_closed_or_collected_context_releases_its_workers(
        new_workers, start_method):
    context = ExecutionContext(jobs=2, start_method=start_method, force=True)
    run_specs(_probes(range(2)), context=context)
    workers = new_workers()
    assert workers and all(p.is_alive() for p in workers)
    context.close()
    context.close()  # idempotent
    assert not any(p.is_alive() for p in workers)

    # ... and a closed context starts afresh, here without a close().
    run_specs(_probes(range(2, 4)), context=context)
    workers = new_workers()
    assert workers and all(p.is_alive() for p in workers)
    del context
    assert not any(p.is_alive() for p in workers)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_dead_worker_costs_one_retry_on_a_fresh_pool(
        new_workers, tmp_path, start_method):
    tombstone = str(tmp_path / "died-once")
    with execution(jobs=2, start_method=start_method, force=True,
                   chunk_size=1) as context:
        doomed = _probes([0], die_once=tombstone)
        results = run_specs(doomed + _probes(range(1, 6)))
        assert [r["n"] for r in results] == list(range(6))
        assert os.path.exists(tombstone)

        # The first pool is gone; whatever it left unfinished (the
        # culprit at least) was served by the fresh one.
        fresh = {p.pid for p in new_workers()}
        retried = [r for r in results if r["pid"] in fresh]
        assert results[0] in retried
        assert context.stats.retried_chunks == len(retried)

        # The next batch rides the fresh pool, at no further retry.
        later = run_specs(_probes(range(6, 10)))
        assert {r["pid"] for r in later} <= fresh
        assert context.stats.retried_chunks == len(retried)

        # Dying on the retry too is an error naming the runs...
        with pytest.raises(RuntimeError, match=r"after one retry.*probe-10"):
            run_specs(_probes([10], die_always=True) + _probes([11]))
        # ... that does not leave the context holding a broken pool.
        assert [r["n"] for r in run_specs(_probes(range(12, 14)))] == [12, 13]
    assert new_workers() == []


def _refusing_chunk(tasks):
    """A chunk whose job refuses its configuration: tallies the attempt
    in the file the payload names, then raises what a job would."""
    for _slot, _kind, payload in tasks:
        if "tally" in payload:
            with open(payload["tally"], "a") as tally:
                tally.write("attempt\n")
            raise ValueError("need duration > 0")
    return [(slot, {"n": payload["n"]}) for slot, _kind, payload in tasks]


@pytest.mark.parametrize("jobs", [1, 2])
def test_configuration_error_runs_once_and_is_not_wrapped(
        monkeypatch, tmp_path, jobs):
    """A job's own ValueError is not a dead worker: no retry, no
    'failed after one retry' wrapper, and the pool stays usable."""
    monkeypatch.setattr(parallel, "_execute_chunk", _refusing_chunk)
    tally = tmp_path / "tally"
    refused = RunSpec("probe", {"tally": str(tally)}, label="refused")
    with execution(jobs=jobs, force=True, chunk_size=1) as context:
        with pytest.raises(ValueError, match="^need duration > 0$"):
            run_specs([refused] + _probes(range(jobs - 1)))
        assert tally.read_text().splitlines() == ["attempt"]
        assert context.stats.retried_chunks == 0
        assert [r["n"] for r in run_specs(_probes(range(4, 6)))] == [4, 5]


_BACK_TO_BACK = """
import os
from repro.harness.parallel import _execute_chunk, scenario_spec
from repro.workloads.scenarios import ScenarioConfig

spec = scenario_spec(
    "n_series", rate=10000.0, n=2, policy="servartuka", duration=0.5,
    warmup=0.5, config=ScenarioConfig(scale=25.0, seed=3, engine="turbo"))
for job in range(12):
    _execute_chunk([(0, spec.kind, dict(spec.payload))])
    with open("/proc/self/statm") as statm:
        print(int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE"))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads resident size from /proc")
def test_back_to_back_jobs_do_not_grow_the_process():
    """A finished scenario is one reference cycle, and every run keeps
    the cyclic collector off (``collector_off``), so nothing collects it
    on its own; without the per-job reclaim the process grows ~5 MB a
    job.  Resident size, not
    ``ru_maxrss``: a child inherits its launcher's peak across
    fork+exec, so under a large pytest process
    ``ru_maxrss`` would read the same twelve times whatever the jobs did.
    """
    out = subprocess.run(
        [sys.executable, "-c", _BACK_TO_BACK], check=True, timeout=120,
        capture_output=True, text=True,
    ).stdout
    resident = [int(line) for line in out.split()]
    assert len(resident) == 12
    assert resident[-1] - resident[0] <= 5 * 2**20, resident
