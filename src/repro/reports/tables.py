"""Plain-text table rendering for experiment results, paper style."""

from __future__ import annotations

from typing import Sequence


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Fixed-width aligned table, paper style."""
    str_rows = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header count")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
