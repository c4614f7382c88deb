"""Fixtures of ``bench_ablations.py``: the quality preset and a saver.

Each ablation renders one table, prints it and writes it to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference the
latest run.  The QUICK preset is the default; set
``REPRO_BENCH_QUALITY=standard`` or ``full`` for higher fidelity.  The
paper figures are ``repro experiments`` ids, not scripts here.
"""

import os
import pathlib

import pytest

from repro.harness.figures import QUALITIES
from repro.harness.report import render_figure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def quality():
    name = os.environ.get("REPRO_BENCH_QUALITY", "quick").lower()
    if name not in QUALITIES:
        raise ValueError(f"REPRO_BENCH_QUALITY must be one of {sorted(QUALITIES)}")
    return QUALITIES[name]


@pytest.fixture
def save_figure():
    """Render a FigureData, print it, and persist it under results/."""

    def _save(figure, filename):
        RESULTS_DIR.mkdir(exist_ok=True)
        text = render_figure(figure)
        (RESULTS_DIR / filename).write_text(text + "\n")
        print()
        print(text)
        return text

    return _save
