"""OLAR — OptimaL Assignment of tasks to Resources.

From Pilla, *Optimal Task Assignment to Heterogeneous Federated
Learning Devices* (2020): assign ``D`` identical data units to ``n``
heterogeneous devices minimising the round makespan
``max_j C_j(k_j)``, where each per-device cost function is monotone
non-decreasing in its own load.

OLAR is a marginal-cost greedy: every unit in turn goes to the device
whose cost *after receiving it* is smallest, maintained in a min-heap.
For monotone costs this is provably optimal — when a unit is placed on
the device with the cheapest next-unit cost, any schedule placing it
elsewhere has a bottleneck at least as large (the exchange argument of
Theorem 1 in the paper; ``tests/sched/test_properties_sched.py``
cross-checks the optimum against the brute-force oracle on every small
instance). Complexity is ``O(n + D log n)``, independent of the cost
matrix width.

The heap never holds stale entries: a device is re-pushed with its next
marginal cost only while below its capacity, so each pop is a valid
assignment. Ties break on the lowest user index (heap order on the
``(cost, j)`` tuple), keeping runs deterministic.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from .base import Assignment, Scheduler, SchedulingProblem
from .registry import register

__all__ = ["OLARScheduler", "olar_assign"]


def olar_assign(
    cost: np.ndarray,
    total_shards: int,
    capacities: np.ndarray,
    row_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Heap greedy over marginal costs; returns per-user shard counts.

    ``cost[j, k]`` is user ``j``'s cost at ``k+1`` shards — or, with
    ``row_of``, ``cost[row_of[j], k]`` is; rows must be non-decreasing
    for the optimality guarantee to hold (the caller —
    :class:`OLARScheduler` — builds matrices through Property-1
    enforcement).
    """
    row = np.arange(cost.shape[0]) if row_of is None else row_of
    n = row.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    heap: List[Tuple[float, int]] = [
        (float(cost[row[j], 0]), j) for j in range(n) if capacities[j] > 0
    ]
    heapq.heapify(heap)
    for _ in range(total_shards):
        if not heap:
            raise ValueError(
                "infeasible: capacities exhausted before all shards "
                "were assigned"
            )
        c, j = heapq.heappop(heap)
        counts[j] += 1
        if counts[j] < capacities[j]:
            heapq.heappush(heap, (float(cost[row[j], counts[j]]), j))
    return counts


@register("olar")
class OLARScheduler(Scheduler):
    """Optimal min-makespan assignment for monotone per-unit costs."""

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        caps = problem.effective_capacities()
        counts = olar_assign(
            problem.time_rows, problem.total_shards, caps, problem.row_of
        )
        schedule = Schedule(
            shard_counts=counts,
            shard_size=problem.shard_size,
            algorithm="olar",
            meta={"optimal": True},
        )
        return self._finish(
            problem,
            schedule,
            makespan_optimal=True,
        )
