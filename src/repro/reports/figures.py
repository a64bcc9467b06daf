"""Terminal-friendly ASCII charts for experiment results.

No plotting dependency exists in this environment, so scaling trends
(the Table III key-size sweep) are rendered as ASCII bar charts in
example output.
"""

from __future__ import annotations

from typing import Sequence


def ascii_bar_chart(
    labels: Sequence[object],
    values: Sequence[float],
    width: int = 40,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart; bars scale to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        return title or ""
    peak = max(values)
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar_len = 0 if peak == 0 else round(width * value / peak)
        bar = "#" * bar_len
        lines.append(
            f"{str(label).rjust(label_width)} | {bar} {value:g}{unit}"
        )
    return "\n".join(lines)
