"""The regression gate behind ``repro bench suite``.

Two dimensionless, host-stable ratios, both ``gated: true`` with an
absolute ceiling, in a schema-versioned payload (committed as
``BENCH_core.json``) that ``repro bench diff`` compares against a fresh
run: the disabled-profiler overhead as a share of an engine run, and
the fed_lbap solve-time ratio between a 512- and a 128-device cohort.
Nothing else lives here: absolute host timings of the round path do
not transfer across machines (or minutes), so they are ``perfbench/``'s
job, measured in yardsticks from a fresh process.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "SUITE_SCHEMA",
    "MetricResult",
    "bench_suite",
    "format_suite",
    "git_sha",
    "suite_payload",
    "write_suite",
]

#: payload schema version (bump on breaking shape changes)
SUITE_SCHEMA = 2


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


#: every timing below is the minimum over this many repeats
_REPEATS = 5


def _best(fn: Callable[[], float]) -> float:
    """Min-of-repeats: the least-noisy point estimate of host cost."""
    return min(fn() for _ in range(_REPEATS))


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


def _engine_metrics() -> List[MetricResult]:
    """The disabled-profiler overhead pin.

    The overhead estimate composes two direct measurements instead of
    differencing two noisy wall times: the per-call cost of a
    *disabled* ``PROFILER.phase(...)`` (tight loop) times the number of
    phase entries one engine run actually makes (counted by enabling
    the global profiler once), divided by the bare run's wall time.
    """
    from ..obs.prof import PROFILER, PhaseProfiler

    n_users, n_rounds = 10, 3
    bare_s = _best(lambda: _engine_run_s(n_users, n_rounds))

    calls = 200_000
    probe = PhaseProfiler()  # fresh, disabled

    def _loop_s() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            with probe.phase("x"):
                pass
        return time.perf_counter() - t0

    per_call_s = _best(_loop_s) / calls

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


# -- scheduler solve latency vs cohort size -----------------------------

#: cohort sizes the scaling ratio is computed over
_SOLVE_COHORTS = (128, 512)


def _solve_metrics(seed: int) -> List[MetricResult]:
    import numpy as np

    from ..fleet import UniformSampler, synthetic_fleet
    from ..sched.binding import timed_schedule
    from ..sched.costs import fleet_problem
    from ..sched.registry import get_scheduler

    fleet = synthetic_fleet(5_000, seed=seed)
    sampler = UniformSampler(seed)
    all_idx = np.arange(fleet.n, dtype=np.int64)
    scheduler = get_scheduler("fed_lbap")

    def _best_solve_ms(k: int) -> float:
        cohort = sampler.sample(all_idx, k)
        problem = fleet_problem(fleet, cohort=cohort, shard_size=500)
        return _best(
            lambda: timed_schedule(scheduler, problem).solve_ms or 0.0
        )

    lo, hi = _SOLVE_COHORTS
    lo_ms, hi_ms = _best_solve_ms(lo), _best_solve_ms(hi)
    return [
        MetricResult(
            name="solve_scaling_fed_lbap",
            value=hi_ms / lo_ms,
            unit="x",
            higher_is_better=False,
            gated=True,
            # ROADMAP ceiling: 4x the users must not cost more than
            # 4x the solve, whatever the baseline reads
            abs_max=4.0,
            note=(
                f"cohort-{hi} / cohort-{lo} solve-time ratio, min of "
                f"{_REPEATS} each, 5000-device fleet; class-form "
                "problems: measures the O(n) per-user part of the "
                "solve plus the wider budget's rows"
            ),
        )
    ]


# -- suite driver + payload ---------------------------------------------


def bench_suite(seed: int = 0) -> List[MetricResult]:
    """Run both suite sections; returns results in a stable order."""
    return [*_engine_metrics(), *_solve_metrics(seed)]


def git_sha(root: Optional[Path] = None) -> str:
    """Current commit of the repo the benchmark ran in (or "unknown")."""
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def suite_payload(
    results: List[MetricResult], sha: Optional[str] = None
) -> Dict[str, object]:
    """The committed-JSON shape: schema + provenance + metric map."""
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
        "metrics": metrics,
    }


def write_suite(
    results: List[MetricResult], path: Path, sha: Optional[str] = None
) -> None:
    payload = suite_payload(results, sha=sha)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def format_suite(results: List[MetricResult]) -> str:
    """Deterministic-layout text table of one suite run."""
    lines = ["== bench suite =="]
    name_w = max(len(r.name) for r in results)
    for r in results:
        flag = "gated" if r.gated else "     "
        lines.append(
            f"{r.name:<{name_w}}  {r.value:>12.4f} {r.unit:<8} {flag}"
            + (f"  [{r.note}]" if r.note else "")
        )
    return "\n".join(lines)
