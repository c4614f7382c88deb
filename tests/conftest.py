"""Shared fixtures for the test suite.

Simulation-heavy tests use an aggressive scale factor (capacities around
a few hundred cps) and shortened SIP timers so each test runs in well
under a second while exercising exactly the same code paths as the
full-fidelity benchmarks.
"""

import os

import pytest
from hypothesis import settings

from repro.core.costmodel import CostModel
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.message import set_engine_mode
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig


# Tier-1 runs the same examples on every host and every run: "ci" draws
# them from a fixed seed and keeps no example database, so one host's
# stored failure cannot turn another's run red.  Hypothesis still writes
# under .hypothesis/ (git-ignored): constants it collects from the code
# into constants/ on every run, and a patch for each failing @given
# test into patches/.  "explore" is
# hypothesis's own randomized default, for the CI job that hunts new
# counterexamples (its finds get checked in as @example lines).
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True, scope="session")
def _isolated_run_cache(tmp_path_factory):
    """Point the default run cache at a temp dir for the whole session,
    so CLI tests that leave caching on never write into the repo."""
    path = str(tmp_path_factory.mktemp("repro-cache"))
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(autouse=True)
def _import_time_engine_mode():
    """Engine switches are process-global and set by whichever scenario
    was built last; restore the import-time mode (reference: wire
    round-trip copies, CPU components summed per job, full histograms)
    after every test so none depends on what ran before it.
    Regression check:
    ``pytest "tests/engine/test_differential.py::test_engines_bit_identical[two_series]" tests/sim/test_network.py``
    """
    yield
    set_engine_mode("reference")


@pytest.fixture
def loop():
    return EventLoop()


@pytest.fixture
def rng():
    return RngStream(1234, "tests")


@pytest.fixture
def network(loop, rng):
    return Network(loop, rng.spawn("net"))


@pytest.fixture
def cost_model():
    """Unscaled cost model (paper-unit capacities)."""
    return CostModel()


@pytest.fixture
def fast_timers():
    """Short RFC timers so retransmission paths run quickly in tests."""
    return TimerPolicy(t1=0.05, t2=0.2, t4=0.2)


@pytest.fixture
def fast_config(fast_timers):
    """Scenario config for cheap end-to-end runs (capacity ~200-250 cps)."""
    return ScenarioConfig(
        scale=50.0,
        seed=7,
        noise_sigma=0.30,
        monitor_period=0.5,
        timers=fast_timers,
    )


# ---------------------------------------------------------------------------
# Golden (snapshot) files
# ---------------------------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files instead of comparing to them",
    )


@pytest.fixture
def golden(request, pytestconfig):
    """Compare ``text`` against ``tests/golden/<name>``.

    With ``--update-golden`` the file is (re)written instead, so
    intentional output changes are reviewed as plain diffs of the
    committed snapshot.
    """
    import pathlib

    def check(name: str, text: str) -> None:
        path = pathlib.Path(__file__).parent / "golden" / name
        if pytestconfig.getoption("--update-golden"):
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            return
        if not path.exists():
            pytest.fail(
                f"golden file {path} missing; run with --update-golden "
                f"to create it"
            )
        expected = path.read_text()
        assert text == expected, (
            f"output differs from golden snapshot {name}; if the change "
            f"is intentional, rerun with --update-golden and review the "
            f"diff"
        )

    return check
