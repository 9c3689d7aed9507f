"""One measured run of one workload, inside the child process.

The shape of every run: build the workload and run one untimed warm-up
round (that span is ``setup_s``), then the timed rounds in blocks, each
block bracketed by yardstick readings; output checks happen after each
round but outside its timer. A traced run does the same with the
wrappers of :mod:`perfbench.trace` installed, and yields the per-layer
metrics instead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import ExitStack, nullcontext
from typing import Any, ContextManager, Dict, List, Optional

from . import layers
from .spec import OUT_DIR
from .stats import highest_percentile, percentile
from .trace import Tracer, installed
from .workloads import Live
from .yardstick import Yardstick, block_yardsticks

__all__ = [
    "MIN_ROUNDS",
    "CHECK_ROUNDS",
    "rounds_for",
    "setup_only",
    "measure",
]

#: p90 needs ten samples beyond it, so no run times fewer rounds
MIN_ROUNDS = 100
#: untimed rounds with a recording scheduler after an untraced run
CHECK_ROUNDS = 3

#: the run length the workloads' ``rounds`` were sized for
_SIZED_FOR_SECONDS = 10.0


def rounds_for(spec_rounds: int, seconds: float) -> int:
    """Timed rounds of a ``--seconds`` run: the spec's count scaled
    from the 10 s it was sized for, never below :data:`MIN_ROUNDS`.
    A fixed count (not a deadline) keeps the virtual metrics, the
    digest and the peak RSS functions of the seed alone."""
    scaled = round(spec_rounds * seconds / _SIZED_FOR_SECONDS)
    return max(MIN_ROUNDS, int(scaled))


def _no_span(name: str) -> ContextManager[None]:
    return nullcontext()


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_and_warm(live: Live, t_entry: float, stack: ExitStack) -> float:
    """Set-up: build, then one untimed warm-up cycle. A traced run
    installs its wrappers between the two — instance rebindings need
    the built objects — and ``stack`` removes them when the run ends."""
    live.build()
    if live.tracer is not None:
        stack.enter_context(installed(live.patches()))
    live.run_round()
    if live.between_span is not None:
        live.between_rounds()
    wall_s = time.perf_counter() - t_entry
    live.check_round()
    return wall_s


def _setup_doc(wall_s: float, yard: Yardstick) -> Dict[str, float]:
    """``setup_s`` is reported at the reference host speed — raw
    seconds would carry the host's minute-scale drift straight into a
    bounded metric — with the wall seconds beside it."""
    return {
        "setup_s": yard.reference_seconds(wall_s),
        "setup_wall_s": wall_s,
    }


def setup_only(live: Live, t_entry: float) -> Dict[str, Any]:
    """A set-up probe: build, one warm-up cycle, report the seconds
    since ``t_entry`` (taken right after ``import repro``)."""
    try:
        with ExitStack() as stack:
            wall_s = _build_and_warm(live, t_entry, stack)
        return _setup_doc(wall_s, Yardstick())
    finally:
        live.close()


def measure(
    live: Live,
    rounds: int,
    t_entry: float,
    untraced_p50: Optional[float] = None,
) -> Dict[str, Any]:
    """Run ``rounds`` timed rounds of ``live``; returns the run's raw
    document (costs, virtual outcomes, checks, and — for a traced run —
    the per-layer values)."""
    if rounds < MIN_ROUNDS:
        raise ValueError(f"a run times at least {MIN_ROUNDS} rounds")
    try:
        with ExitStack() as stack:
            return _run(live, rounds, t_entry, stack, untraced_p50)
    finally:
        live.close()


def _run(
    live: Live,
    rounds: int,
    t_entry: float,
    stack: ExitStack,
    untraced_p50: Optional[float],
) -> Dict[str, Any]:
    tracer = live.tracer
    # an untraced run records nothing, inside the program or around it
    span = tracer.span if tracer is not None else _no_span
    with span("perfbench.setup"):
        setup_wall_s = _build_and_warm(live, t_entry, stack)
    # the yardstick's own allocations come after set-up so they are
    # never part of setup_s; they are a constant of every run's RSS
    yard = Yardstick()
    setup = _setup_doc(setup_wall_s, yard)
    readings = [yard.read()]
    block = live.block_rounds
    round_ms: List[float] = []
    req_ms_per_k: List[float] = []
    perf = time.perf_counter
    done = 0
    while done < rounds:
        for _ in range(min(block, rounds - done)):
            done += 1
            if tracer is not None:
                # the control block after a round shares its round id
                tracer.round_id = done
            t0 = perf()
            with span(live.round_span):
                live.run_round()
            round_ms.append((perf() - t0) * 1e3)
            if live.between_span is not None:
                t0 = perf()
                with span(live.between_span):
                    requests = live.between_rounds()
                req_ms_per_k.append((perf() - t0) * 1e6 / requests)
            if tracer is not None:
                tracer.round_id = 0
            live.check_round()
        readings.append(yard.read())
    peak_rss_mb = _peak_rss_mb()

    blocks, drift_pct = block_yardsticks(readings)
    cost = [ms / blocks[i // block] for i, ms in enumerate(round_ms)]
    req_cost = [ms / blocks[i // block] for i, ms in enumerate(req_ms_per_k)]
    outcomes = live.outcomes()[1 : rounds + 1]
    doc: Dict[str, Any] = {
        "rounds": rounds,
        **setup,
        "round_cost_p50": statistics.median(cost),
        "round_cost_p90": percentile(cost, 90.0),
        "round_ms_p50": statistics.median(round_ms),
        "round_ms_p90": percentile(round_ms, 90.0),
        "highest_percentile": highest_percentile(len(cost)),
        "req_cost_per_k": statistics.median(req_cost) if req_cost else None,
        "req_ms_per_k": (
            statistics.median(req_ms_per_k) if req_ms_per_k else None
        ),
        "peak_rss_mb": peak_rss_mb,
        "virtual_makespan_s": math.fsum(o[0] for o in outcomes) / rounds,
        "virtual_energy_j": math.fsum(o[1] for o in outcomes) / rounds,
        "final_accuracy": live.final_accuracy(),
        "result_digest": live.digest(),
        "yardstick_ms_p50": statistics.median(readings),
        "yardstick_drift_pct": drift_pct,
        # kept in the result set so an estimator can be re-derived
        "raw": {"round_ms": round_ms, "yardstick_ms": readings},
    }

    if tracer is None:
        live.check_rounds_after_timing(CHECK_ROUNDS)
    live.finish_checks()
    if len(outcomes) != rounds:
        live.ledger.record(
            [f"{len(outcomes)} of {rounds} rounds produced an outcome"], ops=0
        )
    doc["attempted"] = live.ledger.attempted
    doc["failed"] = live.ledger.failed
    doc["faults"] = live.ledger.messages

    if tracer is not None:
        values = layers.layer_values(
            tracer, live.round_span, rounds, live.layer_extras()
        )
        values["yardstick.ms_p50"] = doc["yardstick_ms_p50"]
        values["yardstick.drift_pct"] = drift_pct
        values["engine.execution.final_accuracy"] = (
            doc["final_accuracy"] or 0.0
        )
        values["serve.app.req_cost_per_k"] = doc["req_cost_per_k"] or 0.0
        values["trace.overhead_pct"] = (
            (doc["round_cost_p50"] / untraced_p50 - 1.0) * 100.0
            if untraced_p50
            else 0.0
        )
        doc["per_layer"] = values
    return doc


def write_trace(
    tracer: Tracer, workload: str, seed: int, doc: Dict[str, Any]
) -> str:
    """Write the spans of a traced run under ``perfbench/out/``."""
    path = OUT_DIR / f"trace-{workload}.json"
    tracer.write(
        path,
        {
            "workload": workload,
            "seed": seed,
            "rounds": doc["rounds"],
            "unit": "ms since the first span",
        },
    )
    return str(path)
