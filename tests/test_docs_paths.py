"""File paths quoted in the docs must exist.

Every backticked token in the prose docs that looks like a repo path --
it contains a ``/`` and ends in a source/data suffix, or it names a
``BENCH_*.json`` artefact -- has to resolve from the repo root, ``src/``
or ``src/repro/``, so deleting a file without fixing the prose that
points at it fails tier-1.  The engine switches
``set_engine_mode`` flips must be named in ``docs/ARCHITECTURE.md``,
and the fast paths deleted for measuring at zero may appear there
only under "Measured and removed".
"""

import ast
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BASES = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")
DOCS = sorted(
    [REPO_ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    + list((REPO_ROOT / "docs").glob("*.md"))
)

_BACKTICKED = re.compile(r"`([^`\s]+)`")
_PATH = re.compile(r"^[\w./-]+\.(?:py|json|md|toml|yml|txt)$")
_BENCH_ARTEFACT = re.compile(r"^BENCH_\w+\.json$")


def _quoted_paths(text: str):
    for token in _BACKTICKED.findall(text):
        if ("/" in token and _PATH.match(token)) \
                or _BENCH_ARTEFACT.match(token):
            yield token


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_quoted_paths_exist(doc):
    missing = sorted({
        token for token in _quoted_paths(doc.read_text())
        if not any((base / token).exists() for base in BASES)
    })
    assert not missing, f"{doc.name} points at missing files: {missing}"


def test_the_scan_sees_paths():
    # Anti-vacuity: the docs do quote paths, and the scan finds them.
    found = {t for doc in DOCS for t in _quoted_paths(doc.read_text())}
    assert "BENCH_obs.json" in found
    assert sum("/" in token for token in found) >= 10


# ---------------------------------------------------------------------------
# The engine switches the architecture tour describes are the ones
# set_engine_mode actually flips.
# ---------------------------------------------------------------------------
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"
SRC = REPO_ROOT / "src" / "repro"
_REMOVED_HEADING = "#### Measured and removed"
_HEADING = re.compile(r"^#{2,4} ", re.M)

#: One name per turbo fast path deleted for measuring at zero: the
#: packet and CPU-job free lists, the plan pool, the RNG fast path.
DELETED_SWITCHES = (
    "set_packet_pooling", "_JOB_POOL", "_plan_pool", "set_rng_fast_path",
)


def _engine_mode_setters():
    """Names of the ``set_*`` functions ``set_engine_mode`` calls."""
    tree = ast.parse((SRC / "sip" / "message.py").read_text())
    (function,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "set_engine_mode"
    ]
    return [
        node.func.id for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id.startswith("set_")
    ]


def _split_removed(text: str):
    """(the doc outside "Measured and removed", that section)."""
    start = text.index(_REMOVED_HEADING)
    following = _HEADING.search(text, start + len(_REMOVED_HEADING))
    end = following.start() if following else len(text)
    return text[:start] + text[end:], text[start:end]


def test_engine_mode_setters_are_documented():
    setters = _engine_mode_setters()
    assert len(setters) >= 2, setters  # anti-vacuity: the scan sees calls
    text = ARCHITECTURE.read_text()
    undocumented = [name for name in setters if f"`{name}`" not in text]
    assert not undocumented, f"ARCHITECTURE.md never names {undocumented}"


def test_deleted_fast_paths_only_under_measured_and_removed():
    outside, removed = _split_removed(ARCHITECTURE.read_text())
    for name in DELETED_SWITCHES:
        assert f"`{name}`" in removed, name
        assert name not in outside, name
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    assert not [name for name in DELETED_SWITCHES if name in source]
