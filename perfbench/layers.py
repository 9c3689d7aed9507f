"""Per-layer metrics of a traced run: span arithmetic by layer.

A layer is a module of the program (``sched.solve``, ``fleet.store``,
``obs.recorder`` …). Times are mean self milliseconds per timed round
and counts are per round unless a metric says otherwise; a layer that a
workload never enters reads 0. Nothing contends in a one-caller closed
loop, so a faster layer saves at most its ``*_self_ms`` share of the
round.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from .stats import percentile
from .trace import Tracer

__all__ = ["layer_values"]

_STORE_DISPATCH = (
    "fleet.store.run_compute",
    "fleet.store.comm_time_s",
    "fleet.store.soc",
)
_SAMPLING = ("fleet.sampling.sample", "fleet.sampling.eligible_indices")
_COST_BUILDERS = (
    "sched.costs.fleet_problem",
    "sched.costs.problem_from_engine",
)
_ROUND_LAYERS = ("fleet.runner", "engine.engine", "serve.coordinator")


def layer_values(
    tracer: Tracer,
    round_span: str,
    rounds: int,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every span-derived per-layer metric, by its declared name."""
    span_self_ms = tracer.self_ms()
    in_rounds = tracer.by_name(span_self_ms, rounds_only=True)
    overall = tracer.by_name(span_self_ms, rounds_only=False)
    counts = tracer.counts

    def self_ms(*names: str) -> float:
        return sum(in_rounds[n][1] for n in names if n in in_rounds) / rounds

    def calls(*names: str) -> float:
        return sum(in_rounds[n][0] for n in names if n in in_rounds) / rounds

    def durations(name: str) -> List[float]:
        return in_rounds.get(name, (0, 0.0, []))[2]

    def per_round(key: str) -> float:
        return counts.get(key, 0.0) / rounds

    def per_unit_us(total_ms_per_round: float, units_per_round: float) -> float:
        if units_per_round <= 0:
            return 0.0
        return total_ms_per_round * 1e3 / units_per_round

    rows_written = per_round("fleet.store.rows_written")
    fold_ms = self_ms("obs.recorder.fold")
    train_ms = self_ms("engine.execution.train_local")
    solve = durations("sched.solve")
    requests = durations("serve.app.handle_request")
    setup_build_ms = sum(
        overall[n][1] - in_rounds.get(n, (0, 0.0, []))[1]
        for n in _COST_BUILDERS
        if n in overall
    )

    values: Dict[str, float] = {
        "fleet.sampling.calls": calls("fleet.sampling.sample"),
        "fleet.sampling.rows_scanned": per_round("fleet.sampling.rows_scanned"),
        "fleet.sampling.self_ms": self_ms(*_SAMPLING),
        "fleet.store.dispatch_self_ms": self_ms(*_STORE_DISPATCH),
        "fleet.store.idle_self_ms": self_ms("fleet.store.idle"),
        "fleet.store.rows_written": rows_written,
        "fleet.store.useful_row_ratio": (
            per_round("fleet.store.cohort_rows") / rows_written
            if rows_written
            else 0.0
        ),
        "sched.costs.build_self_ms": self_ms(*_COST_BUILDERS),
        "sched.costs.setup_build_ms": setup_build_ms,
        "sched.costs.cells": per_round("sched.costs.cells"),
        "sched.solve.calls": calls("sched.solve"),
        "sched.solve.self_ms": self_ms("sched.solve"),
        "sched.solve.ms_per_call_p50": (
            statistics.median(solve) if solve else 0.0
        ),
        "sched.solve.ms_per_call_p90": (
            percentile(solve, 90.0) if solve else 0.0
        ),
        "sched.binding.restrict_calls": calls("sched.binding.restrict_problem"),
        "sched.binding.restrict_self_ms": self_ms(
            "sched.binding.restrict_problem"
        ),
        "engine.events.emitted": calls("engine.events.emit"),
        "engine.events.emit_self_ms": self_ms("engine.events.emit"),
        "obs.recorder.events_folded": calls("obs.recorder.fold"),
        "obs.recorder.fold_self_ms": fold_ms,
        "obs.recorder.us_per_event": per_unit_us(
            fold_ms, calls("obs.recorder.fold")
        ),
        "engine.telemetry.sink_self_ms": self_ms("engine.telemetry.sink"),
        "engine.execution.train_self_ms": train_ms,
        "engine.execution.train_samples": per_round(
            "engine.execution.train_samples"
        ),
        "engine.execution.us_per_sample": per_unit_us(
            train_ms, per_round("engine.execution.train_samples")
        ),
        "engine.execution.eval_self_ms": self_ms(
            "engine.execution.evaluate_accuracy"
        ),
        "engine.aggregation.calls": calls("engine.aggregation.aggregate"),
        "engine.aggregation.self_ms": self_ms("engine.aggregation.aggregate"),
        "device.run_workload_calls": calls("device.run_workload"),
        "device.run_workload_self_ms": self_ms("device.run_workload"),
        "serve.app.requests": calls("serve.app.handle_request"),
        "serve.app.request_self_ms": self_ms("serve.app.handle_request"),
        "serve.app.us_per_request_p50": (
            statistics.median(requests) * 1e3 if requests else 0.0
        ),
        "serve.registry.sweeps": per_round("serve.registry.sweeps"),
        "serve.registry.sweep_self_ms": self_ms("serve.registry.check"),
        "serve.registry.deaths": per_round("serve.registry.deaths"),
        "serve.modelreg.commit_self_ms": self_ms("serve.modelreg.commit"),
    }
    for layer in _ROUND_LAYERS:
        values[f"{layer}.self_ms"] = (
            self_ms(round_span) if round_span == f"{layer}.round" else 0.0
        )
    values["trace.self_time_gap_pct"] = _self_time_gap_pct(
        tracer, span_self_ms, round_span
    )
    for key in (
        "obs.recorder.spans_held",
        "obs.export.prom_ms",
        "obs.export.trace_ms",
        "engine.telemetry.bytes",
        "serve.app.unexpected_status",
        "serve.coordinator.replans",
        "serve.coordinator.replan_ratio",
        "serve.coordinator.dropped_clients",
    ):
        values[key] = extras.get(key, 0.0)
    return values


def _self_time_gap_pct(
    tracer: Tracer, self_ms: List[float], round_span: str
) -> float:
    """How far the self times inside the round spans are from summing
    to the round spans' durations, in percent of the latter. Children
    are clipped to their parent, so anything but ~0 means a span was
    recorded outside the span that caused it."""
    root_of: List[int] = []
    for sid, parent in enumerate(tracer.parent):
        root_of.append(sid if parent < 0 else root_of[parent])
    round_nid = tracer.name_id(round_span)
    total = inside = 0.0
    for sid, root in enumerate(root_of):
        if tracer.name[root] != round_nid:
            continue
        inside += self_ms[sid]
        if sid == root:
            total += (tracer.end[sid] - tracer.start[sid]) * 1e3
    return abs(inside - total) / total * 100.0 if total else 0.0
