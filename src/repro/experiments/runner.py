"""Experiment result containers and report formatting.

Every experiment module in this package exposes ``run(...) ->
ExperimentResult``; the result carries the rows/series the paper's
corresponding table or figure reports, plus a plain-text formatter so
benchmarks and examples can print paper-style output.
:func:`summarize_telemetry` words the per-experiment telemetry note of
``repro run --telemetry/--obs`` from two ``ObsRecorder.event_counts()``
readings; nothing here folds or holds events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

__all__ = ["ExperimentResult", "format_table", "summarize_telemetry"]


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.4f}"
    return str(v)


def format_table(
    columns: Sequence[str], rows: Sequence[Dict[str, object]]
) -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in cells
    ]
    return "\n".join([header, sep, *body])


@dataclass
class ExperimentResult:
    """The reproduced content of one paper table/figure."""

    name: str
    description: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **kwargs: object) -> None:
        self.rows.append(dict(kwargs))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [r.get(name) for r in self.rows]

    def to_table(self) -> str:
        out = [f"== {self.name}: {self.description}"]
        out.append(format_table(self.columns, self.rows))
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_table()


def summarize_telemetry(
    after: Mapping[str, int], before: Mapping[str, int]
) -> str:
    """One-line summary of what one experiment added to a capture.

    Both arguments are :meth:`repro.obs.ObsRecorder.event_counts`
    readings of the same recorder, taken after and before the
    experiment, so the CLI reports per-experiment deltas when one
    capture spans several experiments.
    """
    delta = {kind: n - before.get(kind, 0) for kind, n in after.items()}
    return (
        f"telemetry: {sum(delta.values())} events "
        f"({delta.get('client_dispatched', 0)} dispatches, "
        f"{delta.get('round_completed', 0)} rounds completed)"
    )
