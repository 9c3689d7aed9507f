"""Dependency-free ASCII plotting for traces and series.

The evaluation environment has no matplotlib; these helpers render the
Fig. 1-style time series (frequency/temperature/batch time) and simple
x-y series as terminal plots, used by the CLI and examples.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["line_plot", "multi_series"]


def line_plot(
    y: Sequence[float],
    width: int = 72,
    height: int = 12,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render one series as an ASCII line plot.

    The series is resampled to ``width`` columns; each column paints the
    cell nearest its value. Returns a multi-line string.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return f"{title}\n(no data)"
    if width < 8 or height < 3:
        raise ValueError("width >= 8 and height >= 3 required")
    # Resample to the plot width.
    xs = np.linspace(0, y.size - 1, width)
    ys = np.interp(xs, np.arange(y.size), y)
    lo, hi = float(ys.min()), float(ys.max())
    span = hi - lo if hi > lo else 1.0
    rows = [[" "] * width for _ in range(height)]
    for col, v in enumerate(ys):
        r = int(round((v - lo) / span * (height - 1)))
        rows[height - 1 - r][col] = "*"
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(rows):
        label = ""
        if i == 0:
            label = f"{hi:8.2f} "
        elif i == height - 1:
            label = f"{lo:8.2f} "
        else:
            label = " " * 9
        lines.append(label + "|" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    if y_label:
        lines.append(" " * 10 + y_label)
    return "\n".join(lines)


def multi_series(
    series: dict,
    width: int = 72,
    height: int = 12,
    title: str = "",
) -> str:
    """Overlay several named series (distinct glyphs, shared y-range)."""
    if not series:
        return f"{title}\n(no data)"
    glyphs = "*o+x#@"
    arrays = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    arrays = {k: v for k, v in arrays.items() if v.size}
    if not arrays:
        return f"{title}\n(no data)"
    lo = min(float(v.min()) for v in arrays.values())
    hi = max(float(v.max()) for v in arrays.values())
    span = hi - lo if hi > lo else 1.0
    rows = [[" "] * width for _ in range(height)]
    for gi, (name, y) in enumerate(arrays.items()):
        glyph = glyphs[gi % len(glyphs)]
        xs = np.linspace(0, y.size - 1, width)
        ys = np.interp(xs, np.arange(y.size), y)
        for col, v in enumerate(ys):
            r = int(round((v - lo) / span * (height - 1)))
            cell = rows[height - 1 - r]
            if cell[col] == " ":
                cell[col] = glyph
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(rows):
        if i == 0:
            label = f"{hi:8.2f} "
        elif i == height - 1:
            label = f"{lo:8.2f} "
        else:
            label = " " * 9
        lines.append(label + "|" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}"
        for i, name in enumerate(arrays)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
