"""Registry adapters around the paper's schedulers and baselines.

Each adapter wraps one of the historical loose functions in
:mod:`repro.core` behind the :class:`~repro.sched.base.Scheduler` ABC.
The wrapped implementations are called verbatim — given the same
inputs, the adapter path emits **bit-identical** schedules to a direct
call (asserted by ``tests/sched/test_adapters.py``), and the old import
paths (``repro.core.fed_lbap`` etc.) keep working unchanged.

One deliberate extension: the raw baselines (Equal / Random /
Proportional) are capacity-oblivious, but every registered scheduler
must respect ``problem.capacities``. When (and only when) a baseline's
allocation violates a cap, the overflow is moved to the slack user with
the cheapest marginal time cost — a deterministic repair that leaves
capacity-feasible allocations untouched.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.baselines import (
    equal_schedule,
    proportional_schedule,
    random_schedule,
)
from ..core.lbap import fed_lbap
from ..core.minavg import fed_minavg_matrix
from ..core.schedule import Schedule
from .base import Assignment, Scheduler, SchedulingProblem
from .registry import register

__all__ = [
    "FedLBAPScheduler",
    "FedMinAvgScheduler",
    "EqualScheduler",
    "RandomScheduler",
    "ProportionalScheduler",
    "repair_to_capacities",
]


def repair_to_capacities(
    counts: np.ndarray,
    capacities: np.ndarray,
    time_cost: np.ndarray,
    row_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Move shards off over-cap users onto the cheapest slack users.

    No-op when the allocation already fits. Receivers are chosen by the
    smallest time cost of their *next* shard (lowest index on ties), so
    the repair is deterministic and biased toward fast devices. User
    ``j``'s costs are ``time_cost[j]``, or ``time_cost[row_of[j]]``.
    """
    counts = np.asarray(counts, dtype=np.int64).copy()
    caps = np.asarray(capacities, dtype=np.int64)
    overflow = int(np.maximum(counts - caps, 0).sum())
    if overflow == 0:
        return counts
    row = np.arange(counts.shape[0]) if row_of is None else row_of
    counts = np.minimum(counts, caps)
    while overflow > 0:
        slack = np.flatnonzero(counts < caps)
        if slack.size == 0:
            raise ValueError(
                "infeasible: total capacity below the allocation"
            )
        marginal = time_cost[row[slack], counts[slack]]
        j = int(slack[int(np.argmin(marginal))])
        counts[j] += 1
        overflow -= 1
    return counts


@register("fed_lbap")
class FedLBAPScheduler(Scheduler):
    """Algorithm 1 (P1): threshold-optimal min-makespan partitioning."""

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        schedule, bottleneck = fed_lbap(
            problem.time_rows,
            problem.total_shards,
            problem.shard_size,
            capacities=problem.capacities,
            row_of=problem.row_of,
        )
        return self._finish(
            problem, schedule, bottleneck=bottleneck
        )


@register("fed_minavg")
class FedMinAvgScheduler(Scheduler):
    """Algorithm 2 (P2): greedy min-average-cost shard assignment over
    the problem's time rows (comm is already folded into them)."""

    def __init__(self, semantics: str = "disjoint") -> None:
        self.semantics = semantics

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        schedule = fed_minavg_matrix(
            problem.time_rows,
            problem.classes_or_default(),
            problem.total_shards,
            problem.shard_size,
            problem.num_classes,
            problem.alpha,
            beta=problem.beta,
            capacities=problem.capacities,
            semantics=self.semantics,
            row_of=problem.row_of,
        )
        return self._finish(
            problem,
            schedule,
            alpha=problem.alpha,
            beta=problem.beta,
            semantics=self.semantics,
        )


@register("equal")
class EqualScheduler(Scheduler):
    """FedAvg-style equal split (remainder on the first users)."""

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        schedule = equal_schedule(
            problem.n_users, problem.total_shards, problem.shard_size
        )
        counts = repair_to_capacities(
            schedule.shard_counts,
            problem.effective_capacities(),
            problem.time_rows,
            problem.row_of,
        )
        schedule = Schedule(
            counts, problem.shard_size, algorithm="equal"
        )
        return self._finish(problem, schedule)


@register("random")
class RandomScheduler(Scheduler):
    """Uniformly random composition, reproducible from an explicit seed.

    The RNG is resolved as: problem's ``rng`` field (Generator or seed)
    first, then this scheduler's ``seed`` — never global numpy state.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        rng = problem.generator(fallback_seed=self.seed)
        schedule = random_schedule(
            problem.n_users,
            problem.total_shards,
            problem.shard_size,
            rng,
        )
        counts = repair_to_capacities(
            schedule.shard_counts,
            problem.effective_capacities(),
            problem.time_rows,
            problem.row_of,
        )
        schedule = Schedule(
            counts, problem.shard_size, algorithm="random"
        )
        return self._finish(problem, schedule)


@register("proportional")
class ProportionalScheduler(Scheduler):
    """Shares proportional to processing power.

    Uses ``problem.weights`` (the paper's mean-CPU-frequency-per-core
    heuristic, filled in by the testbed builders); without weights the
    first-shard *speed* ``1 / C[j, 0]`` stands in as the power estimate.
    """

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        if problem.weights is not None:
            weights = np.asarray(problem.weights, dtype=np.float64)
        else:
            first = np.maximum(
                problem.time_rows[problem.row_of, 0], 1e-12
            )
            weights = 1.0 / first
        schedule = proportional_schedule(
            (),
            problem.total_shards,
            problem.shard_size,
            weights=weights,
        )
        counts = repair_to_capacities(
            schedule.shard_counts,
            problem.effective_capacities(),
            problem.time_rows,
            problem.row_of,
        )
        schedule = Schedule(
            counts, problem.shard_size, algorithm="proportional"
        )
        return self._finish(problem, schedule)
