"""File paths quoted in the docs must exist.

Every backticked token in the prose docs that looks like a repo path --
it contains a ``/`` and ends in a source/data suffix, or it names a
``BENCH_*.json`` artefact -- has to resolve from the repo root, ``src/``
or ``src/repro/``, so deleting a file without fixing the prose that
points at it fails tier-1.
"""

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
