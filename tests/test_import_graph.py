"""The import graph is part of the contract: a process imports what it runs.

``docs/ARCHITECTURE.md`` ("Import layering") names a *core set* every
simulation loads and a set of *leaves* -- the figure pipeline, the LP
and its solvers, the topology generator, overload control, the hybrid
and sharded engines, faults, traces, observability, registrars, B2BUAs,
the wire parser, and the worker-pool machinery -- that only the
feature needing them loads.  These tests hold that line from the
outside, in fresh interpreters under two hash seeds, and hold the other
half of the bargain in-process: every name the two re-exporting
surfaces (the root ``repro`` package and ``repro.api``) advertise still
resolves, lazily, to the object its defining module holds, static tools
still see an import for it -- and the seven sub-packages re-export
nothing, so a name has one import path besides those two.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
HASH_SEEDS = ["1", "2"]

#: What a plain two-proxy chain run must not load.
LEAVES = [
    "repro.harness.figures", "repro.harness.experiments",
    "repro.harness.saturation", "repro.harness.resilience",
    "repro.harness.optgap", "repro.harness.bench",
    "repro.core.lp", "repro.core.simplex", "repro.core.topogen",
    "repro.core.topology", "repro.core.fluid", "repro.core.analysis",
    "repro.core.control",
    "repro.sim.hybrid", "repro.sim.shard", "repro.sim.faults",
    "repro.sim.trace",
    "repro.obs", "repro.obs.observe", "repro.obs.profile",
    "repro.obs.telemetry", "repro.obs.spans", "repro.obs.export",
    "repro.servers.b2bua", "repro.servers.registrar_client",
    "repro.workloads.callgen",
    "repro.sip.parser",
    "concurrent.futures", "multiprocessing",
]

PACKAGES = ["repro", "repro.core", "repro.sim", "repro.sip", "repro.servers",
            "repro.workloads", "repro.harness", "repro.obs"]

#: The only modules that re-export names defined elsewhere.
SURFACES = ["repro", "repro.api"]

#: Appended to every script: report which modules of interest loaded.
_REPORT = """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("repro", "concurrent", "multiprocessing"))))
"""


def _loaded(script: str, hash_seed: str, *argv: str) -> set:
    """Run ``script`` in a fresh interpreter; the modules it reports."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + _REPORT, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, cwd=str(REPO_ROOT),
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# (a) a chain run loads the core set and none of the leaves
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_chain_run_loads_no_leaf(hash_seed):
    loaded = _loaded("""
        import repro.api as api
        from repro.harness.runner import run_scenario

        scenario = api.make_scenario("n_series", n=2, rate=2000.0, seed=3)
        assert run_scenario(scenario, duration=0.1, warmup=0.0).duration > 0
        # ... and through the executor's inline job path:
        api.run_scenario("n_series", n=2, rate=2000.0, seed=3,
                         duration=0.1, warmup=0.0)
    """, hash_seed)
    assert "repro.servers.proxy" in loaded  # the report does see modules
    assert sorted(loaded.intersection(LEAVES)) == []


# ---------------------------------------------------------------------------
# (b) the CLI builds no simulator to print help or read the cache
# ---------------------------------------------------------------------------
_RUN_CLI = """
    import runpy, sys
    sys.argv = ["repro"] + sys.argv[1:]
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as done:
        assert done.code == 0, done.code
"""


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_cli_help_and_cache_stats_build_no_simulator(hash_seed, tmp_path):
    for argv in (["--help"], ["cache", "stats", "--dir", str(tmp_path)]):
        loaded = _loaded(_RUN_CLI, hash_seed, *argv)
        assert "repro.cli" in loaded
        assert not loaded & {"repro.servers.proxy", "repro.harness.figures",
                             "repro.harness.parallel"}, argv


# ---------------------------------------------------------------------------
# (c) every advertised name resolves to its defining module's object
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_exports_resolve_to_their_defining_module(package_name):
    package = importlib.import_module(package_name)
    exports = getattr(package, "_EXPORTS", {})
    # A sub-package is its docstring: no table, no ``__all__``.
    assert bool(exports) == (package_name in SURFACES)
    local = {"__version__"} if package_name == "repro" else set()
    assert set(getattr(package, "__all__", [])) == set(exports) | local
    listed = dir(package)
    for name, module_name in exports.items():
        defined = getattr(importlib.import_module(module_name), name)
        assert getattr(package, name) is defined, (package_name, name)
        assert name in listed, (package_name, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_api_surface_resolves_to_the_defining_modules():
    import repro.api as api

    pinned = (REPO_ROOT / "tests" / "api_surface.txt").read_text().split()
    assert set(api._EXPORTS) <= set(pinned)
    listed = dir(api)
    for name in pinned:
        assert name in listed, name
        value = getattr(api, name)
        if name in api._EXPORTS:
            module = importlib.import_module(api._EXPORTS[name])
            assert value is getattr(module, name), name


@pytest.mark.parametrize("package_name", SURFACES)
def test_star_import_binds_everything_advertised(package_name):
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# (d) pool workers and shard workers still get what they need
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_pool_and_shard_workers_match_inline_runs(hash_seed):
    loaded = _loaded("""
        import os, sys
        import repro.api as api
        from repro.harness.parallel import (
            ExecutionContext, SpecTemplate, run_specs)

        lazy = ("concurrent.futures", "multiprocessing", "repro.sim.shard")
        assert not [name for name in lazy if name in sys.modules]

        def specs(engine, **config):
            template = SpecTemplate(
                "n_series", dict(scale=50.0, seed=5, engine=engine, **config),
                n=2, policy="servartuka")
            return [template.at(load, 0.3, 0.1) for load in (4000.0, 5000.0)]

        inline = run_specs(specs("turbo"), context=ExecutionContext(jobs=1))
        with ExecutionContext(jobs=2, force=True) as pool:
            pooled = run_specs(specs("turbo"), context=pool)
        assert pool.stats.executed == 2 and pool.stats.retried_chunks == 0
        assert pooled == inline

        from repro.sim.shard import DRIVER_ENV, run_sharded_scenario
        payload = specs("sharded", shards=2)[0].payload
        outputs = {}
        for driver in ("inline", "process"):
            os.environ[DRIVER_ENV] = driver
            timing = {}
            outputs[driver] = run_sharded_scenario(dict(payload), timing)
            assert timing["driver"] == driver
        assert outputs["process"] == outputs["inline"]
    """, hash_seed)
    assert {"concurrent.futures", "multiprocessing"} <= loaded
    # Cross-shard messages travel as fields: no wire text, no parser.
    assert "repro.sip.parser" not in loaded


# ---------------------------------------------------------------------------
# Static tools: each lazy table is mirrored by a TYPE_CHECKING import block
# (and a sub-package, which has no table, has no such block either)
# ---------------------------------------------------------------------------
def _type_checking_imports(path: pathlib.Path) -> dict:
    """name -> module for every import under ``if TYPE_CHECKING:``."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and getattr(
                node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), path
                for alias in statement.names:
                    found[alias.asname or alias.name] = statement.module
    return found


@pytest.mark.parametrize("module_name", PACKAGES + ["repro.api"])
def test_lazy_table_matches_the_type_checking_block(module_name):
    module = importlib.import_module(module_name)
    static = _type_checking_imports(pathlib.Path(module.__file__))
    if module_name == "repro.api":
        # The facade also imports annotation-only names there.
        static = {name: source for name, source in static.items()
                  if name in module.__all__}
    assert static == getattr(module, "_EXPORTS", {})
