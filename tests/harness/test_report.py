"""Tests for text rendering helpers."""

import pytest

from repro.harness.figures import FigureData
from repro.harness.report import (
    format_comparison,
    format_table,
    render_figure,
    sparkline,
)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["v"], [[12345.6], [0.123456], [12.3], [0]])
        assert "12,346" in text
        assert "0.123" in text
        assert "12.3" in text


class TestComparison:
    def test_format_comparison(self):
        text = format_comparison([["q", 10, 11, 1.1]])
        assert "quantity" in text and "ratio" in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(line) == 3

    def test_monotone_series_uses_range(self):
        line = sparkline(list(range(10)))
        assert line[0] == " "
        assert line[-1] == "@"

    def test_downsampling(self):
        line = sparkline(list(range(200)), width=40)
        assert len(line) == 40


class TestRenderFigure:
    def test_full_rendering(self):
        figure = FigureData(
            "Figure X",
            "A title",
            ["col"],
            [[1]],
            description="desc",
            comparisons=[["q", 1.0, 1.1, 1.1]],
            notes="a note",
        )
        text = render_figure(figure)
        assert "Figure X" in text
        assert "A title" in text
        assert "desc" in text
        assert "notes: a note" in text

    def test_measured_lookup(self):
        figure = FigureData("F", "t", ["c"], [],
                            comparisons=[["thing", 1.0, 2.0, 2.0]])
        assert figure.measured("thing") == 2.0
        with pytest.raises(KeyError):
            figure.measured("missing")
