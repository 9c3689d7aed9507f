"""MinEnergy — (MC)²MKP-style minimal-energy scheduling.

From Pilla, *Scheduling Algorithms for Federated Learning with Minimal
Energy Consumption* (2022): choosing how many data units each device
trains so that **total energy** ``sum_j E_j(k_j)`` is minimal, subject
to assigning all ``D`` units, is a Minimal-Cost Multiple-Choice
Knapsack problem — every device contributes exactly one "choice"
(its shard count, possibly zero) and the choices must sum to ``D``.

The exact dynamic program fills ``dp[t]`` = minimal Joules to place
``t`` shards on the devices processed so far::

    dp_new[t] = min_{0 <= k <= min(cap_j, t)}  dp[t - k] + E_j(k)

with ``E_j(0) = 0``, in ``O(n D^2)`` time and ``O(n D)`` memory for the
reconstruction table — exact and fast for testbed-scale instances
(hundreds of shards); it is *not* meant for the million-shard regime,
where OLAR-style greedies on marginal energy are the practical choice.

An optional **makespan cap** bridges back to the source paper's P1:
shard counts whose predicted time exceeds the cap are excluded from a
device's choice set (rows are non-decreasing, so the feasible counts
are a prefix found by ``searchsorted``). With a cap the schedule is the
minimal-energy allocation among those meeting the deadline; an
infeasible cap raises ``ValueError`` rather than silently relaxing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.schedule import Schedule
from .base import Assignment, Scheduler, SchedulingProblem
from .registry import register

__all__ = ["MinEnergyScheduler", "min_energy_assign"]


def min_energy_assign(
    energy: np.ndarray,
    total_shards: int,
    capacities: np.ndarray,
    time_cost: Optional[np.ndarray] = None,
    makespan_cap_s: Optional[float] = None,
    row_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact (MC)²MKP dynamic program; returns per-user shard counts.

    User ``j``'s rows are ``energy[j]`` / ``time_cost[j]`` — or, with
    ``row_of``, ``energy[row_of[j]]`` / ``time_cost[row_of[j]]``.
    """
    row = np.arange(energy.shape[0]) if row_of is None else row_of
    n = row.shape[0]
    d = int(total_shards)
    # per-user largest admissible count: capacity, clipped by the cap
    kmax = np.minimum(capacities, d).astype(np.int64)
    if makespan_cap_s is not None:
        if time_cost is None:
            raise ValueError(
                "a makespan cap needs the time_cost matrix to test "
                "feasibility"
            )
        # rows are non-decreasing: counts meeting the cap are a prefix,
        # found once per distinct row
        within = np.array(
            [
                np.searchsorted(time_row, makespan_cap_s, side="right")
                for time_row in time_cost
            ],
            dtype=np.int64,
        )
        kmax = np.minimum(kmax, within[row])
    if int(kmax.sum()) < d:
        raise ValueError(
            "infeasible: no allocation of "
            f"{d} shards meets the makespan cap/capacities "
            f"(max assignable: {int(kmax.sum())})"
        )

    inf = np.inf
    dp = np.full(d + 1, inf)
    dp[0] = 0.0
    choice = np.zeros((n, d + 1), dtype=np.int64)
    for j in range(n):
        e_j = np.concatenate(([0.0], energy[row[j], : kmax[j]]))
        new = np.full(d + 1, inf)
        for t in range(d + 1):
            km = min(kmax[j], t)
            # candidate k = 0..km maps to dp[t-k] reversed slice
            cand = dp[t - km : t + 1][::-1] + e_j[: km + 1]
            k = int(np.argmin(cand))
            new[t] = cand[k]
            choice[j, t] = k
        dp = new
    if not np.isfinite(dp[d]):
        raise ValueError(
            "infeasible: the dynamic program found no full allocation"
        )
    counts = np.zeros(n, dtype=np.int64)
    t = d
    for j in range(n - 1, -1, -1):
        counts[j] = choice[j, t]
        t -= counts[j]
    assert t == 0, "DP reconstruction must consume every shard"
    return counts


@register("min_energy")
class MinEnergyScheduler(Scheduler):
    """Exact minimal-total-energy allocation with an optional deadline.

    ``makespan_cap_s`` set here overrides the problem's own cap; the
    default (``None``) defers to :attr:`SchedulingProblem.makespan_cap_s`.
    """

    def __init__(self, makespan_cap_s: Optional[float] = None) -> None:
        self.makespan_cap_s = makespan_cap_s

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        if problem.energy_rows is None:
            raise ValueError(
                "min_energy needs problem.energy_cost (build the "
                "instance with an energy matrix, e.g. "
                "repro.sched.costs.testbed_problem(with_energy=True))"
            )
        cap = (
            self.makespan_cap_s
            if self.makespan_cap_s is not None
            else problem.makespan_cap_s
        )
        counts = min_energy_assign(
            problem.energy_rows,
            problem.total_shards,
            problem.effective_capacities(),
            time_cost=problem.time_rows,
            makespan_cap_s=cap,
            row_of=problem.row_of,
        )
        schedule = Schedule(
            shard_counts=counts,
            shard_size=problem.shard_size,
            algorithm="min-energy",
            meta={"makespan_cap_s": cap},
        )
        return self._finish(
            problem, schedule, energy_optimal=True, makespan_cap_s=cap
        )
