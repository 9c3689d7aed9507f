"""Plain-text terminal dashboard for ``repro obs summary``.

Pure string rendering over an :class:`~repro.obs.recorder.ObsRecorder`
— no curses, no colour escapes — so output pipes cleanly into files,
CI logs and golden tests.
"""

from __future__ import annotations

from typing import List, Optional

from . import catalog
from .recorder import ObsRecorder

__all__ = ["render_summary"]


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: List[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return out


def render_summary(
    recorder: ObsRecorder, max_rounds: int = 10, max_clients: int = 12
) -> str:
    """Render the run dashboard: rounds, latency, energy, clients."""
    lines: List[str] = []
    m = recorder.metrics

    clock = m.gauge(catalog.CLOCK_SECONDS).value()
    accuracy = m.gauge(catalog.ACCURACY).value()
    lines.append("== run ==")
    lines.append(
        f"events: {recorder.n_events}"
        f"  rounds: {len(recorder.rounds)}"
        f"  clock: {_fmt(clock)}s"
        f"  accuracy: {_fmt(accuracy, 4)}"
        f"  fleet energy: {_fmt(recorder.energy.total_energy_j)} J"
    )
    if recorder.schema_version is not None:
        lines.append(f"telemetry schema: v{recorder.schema_version}")
    if recorder.corrupt_lines:
        lines.append(
            f"warning: skipped {recorder.corrupt_lines} corrupt "
            "telemetry line(s)"
        )

    counts = recorder.event_counts()
    if counts:
        lines.append("")
        lines.append("== events ==")
        lines.extend(
            f"{kind}: {count}" for kind, count in counts.items()
        )

    round_time = m.histogram(catalog.CLIENT_ROUND_SECONDS)
    if round_time.count() > 0:
        lines.append("")
        lines.append("== client round time (s) ==")
        lines.append(
            f"p50: {_fmt(round_time.quantile(0.5))}"
            f"  p95: {_fmt(round_time.quantile(0.95))}"
            f"  max: {_fmt(round_time.quantile(1.0))}"
            f"  n: {round_time.count()}"
        )

    if recorder.rounds:
        lines.append("")
        lines.append("== rounds ==")
        shown = recorder.rounds[-max_rounds:]
        if len(recorder.rounds) > len(shown):
            lines.append(
                f"(last {len(shown)} of {len(recorder.rounds)})"
            )
        rows = [
            [
                str(r.round_idx),
                _fmt(r.makespan_s),
                _fmt(r.mean_time_s),
                str(r.participants),
                str(r.dropped),
                _fmt(r.energy_j, 1),
                _fmt(r.accuracy, 4),
                "-"
                if r.straggler_id is None
                else f"{r.straggler_id} ({r.straggler_s:.2f}s)",
            ]
            for r in shown
        ]
        lines.extend(
            _table(
                [
                    "round",
                    "makespan",
                    "mean",
                    "part",
                    "drop",
                    "energy_j",
                    "acc",
                    "straggler",
                ],
                rows,
            )
        )

    ledgers = recorder.energy.by_client()
    if ledgers:
        lines.append("")
        lines.append("== clients ==")
        # surface the heaviest battery drains first — the paper's
        # fairness story is about exactly these clients
        ordered = sorted(
            ledgers, key=lambda c: c.energy_j, reverse=True
        )[:max_clients]
        if len(ledgers) > len(ordered):
            lines.append(
                f"(top {len(ordered)} of {len(ledgers)} by energy)"
            )
        rows = [
            [
                str(c.client_id),
                str(c.rounds),
                str(c.dropped),
                _fmt(c.busy_s, 1),
                _fmt(c.energy_j, 1),
                _fmt(c.last_soc, 3),
            ]
            for c in ordered
        ]
        lines.extend(
            _table(
                ["client", "rounds", "drops", "busy_s", "energy_j", "soc"],
                rows,
            )
        )

    solves = m.counter(catalog.SCHEDULE_SOLVES_TOTAL)
    solve_rows = list(solves.series())
    if solve_rows:
        lines.append("")
        lines.append("== scheduling ==")
        predicted = m.gauge(catalog.SCHEDULE_PREDICTED_MAKESPAN_SECONDS)
        rows = []
        for (scheduler,), n in solve_rows:
            rows.append(
                [
                    scheduler,
                    str(int(n)),
                    _fmt(predicted.value(scheduler=scheduler)),
                ]
            )
        lines.extend(_table(["scheduler", "solves", "pred_makespan_s"], rows))

    return "\n".join(lines) + "\n"
