"""The core benchmark suite behind ``repro bench suite``.

One command measures the hot paths end to end — object-path engine
rounds, columnar fleet rounds, scheduler solve latency vs cohort size,
serve round round-trips under the seeded churn simulator, and the
disabled-profiler overhead — and records them into a schema-versioned
payload (committed as ``BENCH_core.json``).

Gating discipline: absolute host timings do not transfer across
machines, so only *dimensionless, host-stable* metrics carry
``gated: true`` (the fed_lbap solve-scaling ratio and the profiler
overhead percentage). Raw throughput/latency numbers are recorded for
trend reading but never fail a diff. ``--quick`` shrinks workloads and
repeats for CI smoke runs while computing every **gated** metric the
same way as the full suite, so a quick run diffs meaningfully against
the committed full-mode baseline.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from ..sched.base import Scheduler, SchedulingProblem

__all__ = [
    "SUITE_SCHEMA",
    "MetricResult",
    "bench_suite",
    "format_suite",
    "suite_payload",
    "write_suite",
]

#: payload schema version (bump on breaking shape changes)
SUITE_SCHEMA = 1


@dataclass(frozen=True)
class MetricResult:
    """One suite measurement plus the metadata ``bench diff`` needs."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    #: gated metrics fail ``bench diff`` when they regress
    gated: bool
    #: absolute ceiling checked before any relative comparison
    abs_max: Optional[float] = None
    note: str = ""


def _best(fn: Callable[[], float], repeats: int) -> float:
    """Min-of-repeats: the least-noisy point estimate of host cost."""
    return min(fn() for _ in range(repeats))


# -- object-path engine + profiler overhead -----------------------------


def _engine_run_s(n_users: int, n_rounds: int) -> float:
    """One timing-only ``FederatedSimulation`` run; returns host secs."""
    import numpy as np

    from ..data.partition import iid_partition
    from ..data.synthetic import SyntheticConfig, make_dataset
    from ..device.registry import make_device
    from ..federated.simulation import (
        FederatedSimulation,
        SimulationConfig,
    )
    from ..models import logistic

    names = ("pixel2", "mate10", "nexus6p", "pixel2", "nexus6")
    dataset = make_dataset(
        SyntheticConfig(
            name="suite",
            shape=(1, 8, 8),
            num_classes=10,
            train_size=10_000,
            test_size=50,
            noise=1.0,
            seed=7,
        )
    )
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n_users, rng)
    model = logistic(input_shape=dataset.input_shape, seed=1)
    devices = [
        make_device(names[j % len(names)], jitter=0.0)
        for j in range(n_users)
    ]
    sim = FederatedSimulation(
        dataset, model, users, devices=devices, config=SimulationConfig()
    )
    t0 = time.perf_counter()
    sim.run(n_rounds, train=False)
    return time.perf_counter() - t0


def _engine_metrics(quick: bool) -> List[MetricResult]:
    """Engine rounds/sec plus the disabled-profiler overhead pin.

    The overhead estimate composes two direct measurements instead of
    differencing two noisy wall times: the per-call cost of a
    *disabled* ``PROFILER.phase(...)`` (tight loop) times the number of
    phase entries one engine run actually makes (counted by enabling
    the global profiler once), divided by the bare run's wall time.
    """
    from ..obs.prof import PROFILER, PhaseProfiler

    n_users, n_rounds = 10, 3
    repeats = 2 if quick else 5
    bare_s = _best(lambda: _engine_run_s(n_users, n_rounds), repeats)

    calls = 50_000 if quick else 200_000
    probe = PhaseProfiler()  # fresh, disabled

    def _loop_s() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            with probe.phase("x"):
                pass
        return time.perf_counter() - t0

    per_call_s = _best(_loop_s, repeats) / calls

    PROFILER.reset()
    PROFILER.enable()
    try:
        _engine_run_s(n_users, n_rounds)
        phase_calls = PROFILER.total_count()
    finally:
        PROFILER.disable()
        PROFILER.reset()

    overhead_pct = per_call_s * phase_calls / bare_s * 100.0
    return [
        MetricResult(
            name="engine_rounds_per_sec",
            value=n_rounds / bare_s,
            unit="rounds/s",
            higher_is_better=True,
            gated=False,
            note=f"object-path RoundEngine, {n_users} users, timing-only",
        ),
        MetricResult(
            name="profiler_overhead_pct",
            value=overhead_pct,
            unit="%",
            higher_is_better=False,
            gated=True,
            abs_max=1.0,
            note=(
                f"disabled-phase cost x {phase_calls} phase entries "
                "per engine run / bare wall time"
            ),
        ),
    ]


# -- columnar fleet engine ----------------------------------------------


def _fleet_metric(quick: bool, seed: int) -> MetricResult:
    from ..fleet import FleetRunner, UniformSampler, synthetic_fleet

    n = 2_000 if quick else 10_000
    rounds = 3
    repeats = 2 if quick else 5

    def _one() -> float:
        fleet = synthetic_fleet(n, seed=seed)
        runner = FleetRunner(
            fleet,
            scheduler="proportional",
            sampler=UniformSampler(seed),
            cohort_size=256,
            shard_size=500,
        )
        t0 = time.perf_counter()
        runner.run(rounds)
        return time.perf_counter() - t0

    return MetricResult(
        name="fleet_rounds_per_sec",
        value=rounds / _best(_one, repeats),
        unit="rounds/s",
        higher_is_better=True,
        gated=False,
        note=f"columnar FleetRunner, {n} devices, cohort 256",
    )


# -- scheduler solve latency vs cohort size -----------------------------

#: cohort sizes the scaling ratio is computed over — identical in quick
#: and full modes so quick CI runs diff against the full baseline
_SOLVE_COHORTS = (128, 512)


def _time_solve_ms(
    scheduler: "Scheduler", problem: "SchedulingProblem", repeats: int
) -> float:
    def _one() -> float:
        t0 = time.perf_counter()
        scheduler.schedule(problem)
        return time.perf_counter() - t0

    return _best(_one, repeats) * 1e3


def _solve_metrics(quick: bool, seed: int) -> List[MetricResult]:
    import numpy as np

    from ..fleet import UniformSampler, synthetic_fleet
    from ..sched.costs import fleet_problem
    from ..sched.registry import get_scheduler

    repeats = 3 if quick else 5
    fleet = synthetic_fleet(5_000, seed=seed)
    sampler = UniformSampler(seed)
    all_idx = np.arange(fleet.n, dtype=np.int64)
    out: List[MetricResult] = []
    for sched_name in ("proportional", "fed_lbap"):
        scheduler = get_scheduler(sched_name)
        best_ms: Dict[int, float] = {}
        for k in _SOLVE_COHORTS:
            cohort = sampler.sample(all_idx, k)
            problem = fleet_problem(fleet, cohort=cohort, shard_size=500)
            best_ms[k] = _time_solve_ms(scheduler, problem, repeats)
            out.append(
                MetricResult(
                    name=f"solve_ms_{sched_name}_c{k}",
                    value=best_ms[k],
                    unit="ms",
                    higher_is_better=False,
                    gated=False,
                    note=f"min of {repeats}, 5000-device fleet",
                )
            )
        hi, lo = _SOLVE_COHORTS[1], _SOLVE_COHORTS[0]
        out.append(
            MetricResult(
                name=f"solve_scaling_{sched_name}",
                value=best_ms[hi] / best_ms[lo],
                unit="x",
                higher_is_better=False,
                # proportional solves in ~0.5 ms — too noisy to gate
                gated=sched_name == "fed_lbap",
                # ROADMAP ceiling: 4x the users must not cost more
                # than 4x the solve, whatever the baseline reads
                abs_max=4.0 if sched_name == "fed_lbap" else None,
                note=(
                    f"cohort-{hi} / cohort-{lo} solve-time ratio "
                    "(dimensionless, host-stable)"
                ),
            )
        )
    return out


# -- serve round round-trips under churn --------------------------------


def _serve_metric(quick: bool, seed: int) -> MetricResult:
    from ..serve.app import ServeApp, ServeConfig
    from ..serve.clock import ManualClock
    from ..serve.simclients import SimClientDriver, churn_trace

    rounds = 2 if quick else 4

    async def _run() -> float:
        clock = ManualClock()
        app = ServeApp(
            ServeConfig(fleet_size=96, shard_size=100, seed=seed),
            now_fn=clock,
        )
        trace = churn_trace(
            64, horizon_s=120.0, seed=seed, heartbeat_every_s=5.0
        )
        driver = SimClientDriver(app, clock, trace)
        join_end = max(e.at_s for e in trace if e.action == "join")
        await driver.run_until(join_end)
        times_ms: List[float] = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            status, _ = app.handle_request("POST", "/v1/rounds", {})
            if status != 202:  # pragma: no cover - workload guard
                raise RuntimeError(f"round submit returned {status}")
            await app.run_pending()
            times_ms.append((time.perf_counter() - t0) * 1e3)
            await driver.run_until(driver.clock() + 10.0)
        return sum(times_ms) / len(times_ms)

    return MetricResult(
        name="serve_round_trip_ms",
        value=asyncio.run(_run()),
        unit="ms",
        higher_is_better=False,
        gated=False,
        note=(
            f"mean of {rounds} submit->completed round-trips, 64-device "
            "seeded churn trace, in-process"
        ),
    )


# -- suite driver + payload ---------------------------------------------


def bench_suite(quick: bool = False, seed: int = 0) -> List[MetricResult]:
    """Run every suite section; returns results in a stable order."""
    results: List[MetricResult] = []
    results.extend(_engine_metrics(quick))
    results.append(_fleet_metric(quick, seed))
    results.extend(_solve_metrics(quick, seed))
    results.append(_serve_metric(quick, seed))
    return results


def suite_payload(
    results: List[MetricResult],
    quick: bool = False,
    sha: Optional[str] = None,
) -> Dict[str, object]:
    """The committed-JSON shape: schema + provenance + metric map."""
    from ..fleet.bench import git_sha

    metrics: Dict[str, object] = {}
    for r in results:
        doc: Dict[str, object] = {
            "value": r.value,
            "unit": r.unit,
            "higher_is_better": r.higher_is_better,
            "gated": r.gated,
        }
        if r.abs_max is not None:
            doc["abs_max"] = r.abs_max
        if r.note:
            doc["note"] = r.note
        metrics[r.name] = doc
    return {
        "schema": SUITE_SCHEMA,
        "git_sha": sha if sha is not None else git_sha(),
        "quick": quick,
        "metrics": metrics,
    }


def write_suite(
    results: List[MetricResult],
    path: Path,
    quick: bool = False,
    sha: Optional[str] = None,
) -> None:
    payload = suite_payload(results, quick=quick, sha=sha)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def format_suite(results: List[MetricResult], quick: bool = False) -> str:
    """Deterministic-layout text table of one suite run."""
    mode = "quick" if quick else "full"
    lines = [f"== bench suite ({mode}) =="]
    name_w = max(len(r.name) for r in results)
    for r in results:
        flag = "gated" if r.gated else "     "
        lines.append(
            f"{r.name:<{name_w}}  {r.value:>12.4f} {r.unit:<8} {flag}"
            + (f"  [{r.note}]" if r.note else "")
        )
    return "\n".join(lines)
