"""Parallel executor unit tests: spec hashing, dedupe, caching, retry.

The pool itself is exercised end-to-end by
``tests/engine/test_parallel_differential.py`` and its lifecycle by
``tests/harness/test_pool_lifecycle.py``; here everything runs inline
so the semantics are cheap to pin down.
"""

import pytest

from repro import cli
from repro.cli import build_parser
from repro.harness import parallel
from repro.harness.parallel import (
    ExecutionContext,
    RunSpec,
    SpecTemplate,
    canonical_json,
    current_context,
    execution,
    run_scenario_specs,
    run_specs,
    scenario_spec,
    spec_key,
)
from repro.harness.runner import run_scenario
from repro.workloads.scenarios import ScenarioConfig, n_series

# Scale divides the test rates exactly, so offered_paper_cps round-trips
# without float noise and order assertions can compare values directly.
CONFIG = ScenarioConfig(scale=50.0, seed=3)


def _spec(rate=4000.0, **kwargs):
    return scenario_spec(
        "n_series", rate=rate, config=CONFIG, duration=1.5, warmup=0.5,
        n=2, policy="servartuka", **kwargs
    )


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------
def test_key_independent_of_dict_order():
    a = spec_key("scenario", {"alpha": 1, "beta": {"x": 2, "y": 3}})
    b = spec_key("scenario", {"beta": {"y": 3, "x": 2}, "alpha": 1})
    assert a == b


def test_key_independent_of_number_spelling():
    assert spec_key("scenario", {"rate": 9000}) == \
        spec_key("scenario", {"rate": 9000.0})
    # ... but different values hash differently.
    assert spec_key("scenario", {"rate": 9000}) != \
        spec_key("scenario", {"rate": 9001})


def test_key_distinguishes_bool_from_number():
    assert spec_key("k", {"flag": True}) != spec_key("k", {"flag": 1})


def test_key_includes_kind():
    assert spec_key("scenario", {"a": 1}) != spec_key("fingerprint", {"a": 1})


def test_label_excluded_from_key():
    payload = {"builder": "n_series"}
    assert RunSpec("scenario", payload, label="x").key() == \
        RunSpec("scenario", payload, label="y").key()


def test_canonical_json_stable_float_format():
    # json repr of floats is shortest-roundtrip, so equal values always
    # serialize identically regardless of how they were computed.
    assert canonical_json({"v": 0.1 + 0.2}) == canonical_json(
        {"v": 0.30000000000000004}
    )


def test_canonical_json_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical_json({"v": object()})


def test_template_rejects_unknown_builder():
    with pytest.raises(ValueError):
        SpecTemplate("no_such_builder", CONFIG)


def test_template_closes_over_load():
    template = SpecTemplate("n_series", CONFIG, n=2, policy="static")
    spec = template.at(8000.0, duration=2.0, warmup=1.0)
    assert spec.kind == "scenario"
    assert spec.payload["kwargs"]["rate"] == 8000.0
    assert spec.payload["duration"] == 2.0
    # Same template, same load -> same key (template is reusable).
    assert spec.key() == template.at(8000.0, 2.0, 1.0).key()


# ---------------------------------------------------------------------------
# Inline execution semantics
# ---------------------------------------------------------------------------
def test_serial_spec_equals_direct_run():
    spec = _spec()
    result = run_scenario_specs([spec])[0]
    direct = run_scenario(
        n_series(2, 4000.0, policy="servartuka", config=CONFIG),
        duration=1.5, warmup=0.5,
    )
    # Spec-path results pass through JSON normalization; every scalar
    # field must still match the in-process run exactly.
    assert result.to_payload() == parallel._normalize(direct.to_payload())


def test_batch_dedupes_identical_specs():
    context = ExecutionContext(jobs=1)
    results = run_specs([_spec(), _spec(), _spec(rate=4500.0)],
                        context=context)
    assert results[0] == results[1]
    assert results[0] != results[2]
    assert context.stats.runs == 3
    assert context.stats.executed == 2
    assert context.stats.deduped == 1


def test_memo_spans_batches_within_context():
    context = ExecutionContext(jobs=1)
    first = run_specs([_spec()], context=context)
    second = run_specs([_spec()], context=context)
    assert first == second
    assert context.stats.executed == 1
    assert context.stats.memo_hits == 1
    assert context.stats.cache_hits == 0


def test_memo_hits_are_not_disk_hits():
    # Without a disk cache every hit comes from the memo: the summary
    # must not report a disk hit rate for them.
    context = ExecutionContext(jobs=1)
    for _ in range(3):
        run_specs([_spec()], context=context)
    assert context.stats.memo_hits == 2
    assert context.stats.cache_hits == 0
    assert context.stats.hit_rate() == 0.0
    assert "cache_hits=0 hit_rate=0.0% memo_hits=2" in context.stats.summary()


def test_hit_rate_counts_disk_lookups_only(tmp_path):
    cold = ExecutionContext(jobs=1, use_cache=True, cache_dir=str(tmp_path))
    run_specs([_spec()], context=cold)
    warm = ExecutionContext(jobs=1, use_cache=True, cache_dir=str(tmp_path))
    # One disk hit, two memo hits (a repeat in the same batch and one
    # in the next batch) and one miss.
    run_specs([_spec(), _spec()], context=warm)
    run_specs([_spec(), _spec(rate=4500.0)], context=warm)
    stats = warm.stats
    assert (stats.runs, stats.cache_hits, stats.memo_hits, stats.deduped,
            stats.executed) == (4, 1, 2, 0, 1)
    assert stats.hit_rate() == 0.5


def test_disk_cache_round_trip(tmp_path):
    spec = _spec()
    cold = ExecutionContext(jobs=1, use_cache=True, cache_dir=str(tmp_path))
    warm = ExecutionContext(jobs=1, use_cache=True, cache_dir=str(tmp_path))
    assert run_specs([spec], context=cold) == run_specs([spec], context=warm)
    assert cold.stats.executed == 1
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == 1
    assert warm.stats.hit_rate() == 1.0


def test_results_merge_in_spec_order():
    specs = [_spec(rate=r) for r in (5000.0, 3000.0, 4000.0)]
    results = run_specs(specs)
    offered = [r["result"]["offered_cps"] for r in results]
    assert offered == [5000.0, 3000.0, 4000.0]


def test_execution_context_stack():
    assert current_context().jobs == 1
    with execution(jobs=3) as outer:
        assert current_context() is outer
        with execution(jobs=2) as inner:
            assert current_context() is inner
        assert current_context() is outer
    assert current_context().jobs == 1


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ExecutionContext(jobs=0)


def test_default_start_method(monkeypatch):
    """Fork on Linux, spawn elsewhere; ``REPRO_MP_START`` wins."""
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    monkeypatch.setattr(parallel.sys, "platform", "linux")
    assert parallel.default_start_method() == "fork"
    for platform in ("darwin", "win32"):
        monkeypatch.setattr(parallel.sys, "platform", platform)
        assert parallel.default_start_method() == "spawn"
    monkeypatch.setenv("REPRO_MP_START", "forkserver")
    assert parallel.default_start_method() == "forkserver"


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert parallel.clamp_jobs(3) == 3
    assert parallel.clamp_jobs(4) == 4
    assert capsys.readouterr().err == ""
    assert parallel.clamp_jobs(9) == 4
    err = capsys.readouterr().err
    assert "--jobs 9 exceeds 4 available CPUs" in err
    assert "clamping to 4" in err


def test_jobs_clamp_force_escape_hatch(monkeypatch, capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert parallel.clamp_jobs(16, force=True) == 16
    assert capsys.readouterr().err == ""
    context = ExecutionContext(jobs=16, force=True)
    assert context.jobs == 16
    clamped = ExecutionContext(jobs=16)
    assert clamped.jobs == 2


def test_jobs_count_only_the_cpus_the_process_may_use(monkeypatch, capsys):
    """Under ``taskset -c 0`` on a 2-CPU host ``os.cpu_count()`` still
    reads 2: neither the clamp nor the CLI's default ``-j`` may start
    two CPU-bound workers on the one CPU the process may use."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert parallel.usable_cpus() == 1
    assert parallel.clamp_jobs(2) == 1
    assert "--jobs 2 exceeds 1 available CPUs" in capsys.readouterr().err

    args = build_parser().parse_args(["sweep", "--no-cache"])
    assert args.jobs is None
    with cli._execution(args) as context:
        assert context.jobs == 1
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Failure handling (flaky job kinds get exactly one retry)
# ---------------------------------------------------------------------------
def test_inline_retries_once_then_succeeds(monkeypatch):
    attempts = {"n": 0}

    def flaky(payload):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("transient")
        return {"ok": attempts["n"]}

    monkeypatch.setitem(parallel.JOBS, "flaky", flaky)
    context = ExecutionContext(jobs=1)
    results = run_specs([RunSpec("flaky", {"x": 1}, label="flaky-job")],
                        context=context)
    assert results == [{"ok": 2}]
    assert context.stats.retried_chunks == 1


def test_inline_persistent_failure_surfaces_label(monkeypatch):
    def broken(payload):
        raise RuntimeError("always")

    monkeypatch.setitem(parallel.JOBS, "broken", broken)
    with pytest.raises(RuntimeError, match="doomed-run"):
        run_specs([RunSpec("broken", {}, label="doomed-run")],
                  context=ExecutionContext(jobs=1))


def test_registered_kind_served_from_cache_by_second_context(
        tmp_path, monkeypatch):
    calls = {"n": 0}

    def fake_job(payload):
        calls["n"] += 1
        return {"value": payload["x"] * 2}

    monkeypatch.setitem(parallel.JOBS, "doubling", fake_job)
    spec = RunSpec("doubling", {"x": 21}, label="doubling")
    payloads = []
    for _ in range(2):
        context = ExecutionContext(jobs=1, use_cache=True,
                                   cache_dir=str(tmp_path))
        payloads.append(run_specs([spec], context=context))
    assert payloads[0] == payloads[1] == [{"value": 42}]
    assert calls["n"] == 1  # every kind in JOBS is cacheable
    assert context.stats.cache_hits == 1 and context.stats.executed == 0
