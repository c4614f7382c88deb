"""Self-tests of the benchmark (not collected by tier-1, whose
``testpaths`` is ``tests``).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import metrics as M  # noqa: E402
import run  # noqa: E402


def test_names_units_and_limits_meet_the_contract():
    names = ([m["name"] for m in M.END_TO_END + M.PER_LAYER]
             + list(M.WORKLOADS))
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(M.NAME_RE.match(name) for name in names)
    assert all(M.UNIT_RE.match(unit) for unit in M.UNITS.values())
    assert all(len(why) <= 200 and "\n" not in why
               for why in M.WORKLOADS.values())
    assert 2 <= len(M.WORKLOADS) <= 8
    assert 1 <= len(M.END_TO_END) <= 16 and 1 <= len(M.PER_LAYER) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in M.END_TO_END)
    set_up = next(m for m in M.END_TO_END if m["name"] == "setup_s")
    assert set_up["unit"] == "s" and set_up["better"] == "lower"
    assert set_up["bound"] == max(m["bound"] for m in M.END_TO_END)
    # The driver's 4 + 22 x workloads runs must fit its 3420 s cap.
    assert 1 <= M.RUN_SECONDS <= 60 and M.RUN_SECONDS == int(M.RUN_SECONDS)


def test_benchmark_json_is_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == M.benchmark_json()


def test_every_source_file_has_a_layer():
    missing = []
    for folder, _dirs, files in os.walk(layers.SRC_ROOT):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            try:
                assert layers.layer_of(path) in M.LAYERS
            except KeyError:
                missing.append(os.path.relpath(path, layers.SRC_ROOT))
    assert not missing, f"give these files a layer in layers.py: {missing}"
    assert layers.layer_of(os.__file__) == "stdlib"
    assert set(layers.DRIVERS) == {name for name, _unit in M.UNIT_COSTS}


def test_compare_verdicts():
    steady = run.summarize([10.0, 10.1, 9.9, 10.0, 10.05])
    bound = M.BOUNDS["wall_s"]
    assert compare.verdict("wall_s", steady, steady, bound) == "same"
    slower = run.summarize([v * (1 + 2 * bound) for v in steady["values"]])
    faster = run.summarize([v * (1 - 2 * bound) for v in steady["values"]])
    assert compare.verdict("wall_s", steady, slower, bound) == "worse"
    assert compare.verdict("wall_s", steady, faster, bound) == "better"
    # A spread wider than the bound cannot resolve a small shift ...
    noisy = run.summarize([8.0, 9.0, 10.0, 11.0, 12.0])
    assert compare.verdict("wall_s", noisy, steady, bound) == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert compare.verdict(
        "wall_s", noisy, run.summarize([5.0, 5.1, 5.2]), bound) == "better"
    assert compare.verdict(
        "wall_s", noisy, run.summarize([15.0, 15.1, 15.2]), bound) == "worse"
    # Unbounded per-layer rows are informative only.
    assert compare.verdict("trace.wall_s", steady, slower, None) == "-"

    def report(goodput, failed_share=0.0):
        return {"workloads": {"w": {
            "failed_share": failed_share,
            "exact": {"fingerprint": "abc", "sim_goodput_cps": goodput},
            "metrics": {"wall_s": steady},
        }}}

    rows = compare.compare(report(10270.0), report(10270.0))
    assert {row["verdict"] for row in rows} == {"same", "identical"}
    rows = compare.compare(report(10270.0), report(10000.0, 0.5))
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["sim_goodput_cps"] == "differs"
    assert verdicts["failed_share"] == "worse"
    assert verdicts["fingerprint"] == "identical"


def test_smoke_suite_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(M.WORKLOADS)
    assert {"nproc", "platform", "python", "commit", "loadavg_1m_at_start",
            "jobs_effective", "shard_driver"} <= set(report["host"])
    wanted = {m["name"] for m in M.END_TO_END + M.PER_LAYER}
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 3, name
        reported = set(entry["metrics"]) | set(entry["exact"])
        assert wanted <= reported, (name, sorted(wanted - reported))
        assert all(s["unit"] == M.UNITS[metric]
                   for metric, s in entry["metrics"].items())
        shares = sum(entry["metrics"][f"{layer}.self_share"]["median"]
                     for layer in M.LAYERS)
        assert abs(shares - 1.0) < 1e-3, name
    exact = {name: entry["exact"]
             for name, entry in report["workloads"].items()}
    assert (exact["chain_wire"]["fingerprint"]
            == exact["chain_steady"]["fingerprint"])
    assert exact["chain_steady"]["sip.parser.calls_per_call"] == 0
    assert exact["chain_wire"]["sip.parser.calls_per_call"] > 0
    for name, entry in report["workloads"].items():
        share = entry["metrics"]["sim.shard.self_share"]["median"]
        assert (share > 0) == (name == "mesh_sharded"), name
    assert exact["fig5_sweep"]["harness.runcache.hit_rate"] == 1.0
    assert not os.path.exists(run.SCRATCH) or not os.listdir(run.SCRATCH)


def test_refuses_to_run_without_the_simulator(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "chain_steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
