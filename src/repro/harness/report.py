"""Plain-text rendering of experiment results.

The benchmarks print the same rows/series the paper reports; these
helpers keep the formatting in one place so every bench and example
looks alike.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return "\n".join(out)


def format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_comparison(
    entries: Sequence[Sequence[object]], title: str = "paper vs measured"
) -> str:
    return format_table(["quantity", "paper", "measured", "ratio"], entries, title)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """A crude one-line chart for terminal output."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo = min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in values
    )


def render_figure(figure) -> str:
    """Render a :class:`repro.harness.figures.FigureData` to text."""
    parts: List[str] = [f"== {figure.figure_id}: {figure.title} =="]
    if figure.description:
        parts.append(figure.description)
    if figure.rows:
        parts.append(format_table(figure.columns, figure.rows))
    if figure.comparisons:
        parts.append(format_comparison(figure.comparisons))
    if figure.notes:
        parts.append("notes: " + figure.notes)
    return "\n\n".join(parts)
