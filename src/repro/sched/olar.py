"""OLAR — OptimaL Assignment of tasks to Resources.

From Pilla, *Optimal Task Assignment to Heterogeneous Federated
Learning Devices* (2020): assign ``D`` identical data units to ``n``
heterogeneous devices minimising the round makespan
``max_j C_j(k_j)``, where each per-device cost function is monotone
non-decreasing in its own load.

OLAR gives every unit in turn to the device whose cost *after
receiving it* is smallest, the lowest user index first on ties; for
monotone costs that is optimal (Theorem 1 of the paper). Its answer is
the ``D`` cheapest marginal cells. On non-decreasing rows those are
the cells Alg. 1 (:func:`~repro.core.lbap.fed_lbap`) selects: every
cell below ``c*``, and enough of the cells equal to ``c*``. The two
differ only in who keeps the cells equal to ``c*``: Fed-LBAP's trim
gives them back from the lowest user index first, OLAR's greedy lets
the lowest index keep them. A user's counts at or below ``c*`` depend
only on its own row and capacity, so ``olar_assign`` runs Fed-LBAP on
the users in reverse order and reverses the counts back: the same
selection with the opposite give-back order, and the same input
checks (rows must be non-decreasing). The marginal-cost heap survives
as the tests' reference (``tests/sched/test_olar_selection.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.lbap import fed_lbap
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
    """Per-user shard counts of the ``D`` cheapest marginal cells.

    ``cost[j, k]`` is user ``j``'s cost at ``k+1`` shards — or, with
    ``row_of``, ``cost[row_of[j]]`` is user ``j``'s row. Rows, caps
    and ``row_of`` are checked as :func:`~repro.core.lbap.fed_lbap`
    checks them, whose ``ValueError`` any bad input raises.
    """
    if row_of is None:
        row_of = np.arange(len(cost))
    # reversed users: Fed-LBAP's trim then gives back from the highest
    # index first, so the lowest index keeps its cells equal to c*
    schedule, _ = fed_lbap(
        cost,
        total_shards,
        capacities=np.flip(capacities),
        row_of=np.flip(row_of),
    )
    return np.ascontiguousarray(np.flip(schedule.shard_counts))


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
