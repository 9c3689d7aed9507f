"""Output checks: what makes a round count as failed.

Checks always run outside the timed region. An *operation* is a round
or a control-plane request; :class:`OpLedger` counts attempts and
failures and keeps the first few failure messages for the report.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.sched import Assignment, Scheduler, SchedulingProblem, get_scheduler

__all__ = [
    "OpLedger",
    "assignment_faults",
    "lbap_optimum",
    "RecordingScheduler",
    "finite_positive",
]

_KEPT_MESSAGES = 10


class OpLedger:
    """Attempted / failed operation counts for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, faults: List[str], ops: int = 1) -> None:
        """Count ``ops`` operations; any fault fails one of them."""
        self.attempted += ops
        if faults:
            self.failed += 1
            room = _KEPT_MESSAGES - len(self.messages)
            self.messages.extend(faults[:room])


def lbap_optimum(problem: SchedulingProblem) -> float:
    """The minimal feasible bottleneck of a P1 instance, computed
    independently of ``repro.core.lbap``: the smallest matrix value
    ``c`` whose per-user within-threshold shard counts (clipped to the
    capacities) cover the budget. Any allocation of the full budget has
    a makespan of at least this, and Fed-LBAP claims to attain it."""
    cost = problem.time_cost
    caps = problem.effective_capacities()
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        within = np.minimum((cost <= values[mid]).sum(axis=1), caps)
        if int(within.sum()) >= problem.total_shards:
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def assignment_faults(
    problem: SchedulingProblem,
    assignment: Assignment,
    oracle: bool = False,
) -> List[str]:
    """Faults of one scheduler answer: the shard budget is conserved,
    effective capacities are respected and the predicted makespan is
    the matrix's. With ``oracle`` a ``fed_lbap`` answer must also beat
    (or tie) ``proportional`` on the same instance and equal the
    independently computed optimum."""
    faults: List[str] = []
    counts = np.asarray(assignment.shard_counts, dtype=np.int64)
    if counts.shape != (problem.n_users,):
        return [f"assignment covers {counts.shape} of {problem.n_users} users"]
    if int(counts.sum()) != problem.total_shards:
        faults.append(
            f"allocated {int(counts.sum())} of {problem.total_shards} shards"
        )
    if (counts < 0).any() or (counts > problem.effective_capacities()).any():
        faults.append("allocation outside [0, effective capacity]")
    if faults:
        return faults
    predicted = problem.predicted_makespan(counts)
    if not math.isclose(
        predicted, assignment.predicted_makespan_s, rel_tol=1e-12
    ):
        faults.append("predicted makespan differs from the cost matrix")
    if oracle and assignment.scheduler == "fed_lbap":
        baseline = get_scheduler("proportional").schedule(problem)
        if predicted > baseline.predicted_makespan_s:
            faults.append(
                f"fed_lbap makespan {predicted!r} above proportional's "
                f"{baseline.predicted_makespan_s!r}"
            )
        optimum = lbap_optimum(problem)
        if predicted != optimum:
            faults.append(
                f"fed_lbap makespan {predicted!r} is not the optimum "
                f"{optimum!r}"
            )
    return faults


class RecordingScheduler(Scheduler):
    """Delegates to a real scheduler and keeps the pairs it solved since
    the last :meth:`drain`, so the harness can check them between
    rounds. Never present in an untraced timed round: untraced runs use
    it only for the check rounds after timing ends, traced runs pass
    the span-recording ``solve``."""

    def __init__(
        self,
        inner: Scheduler,
        solve: Optional[Callable[[SchedulingProblem], Assignment]] = None,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self._solve = solve if solve is not None else inner.schedule
        self._solved: List[Tuple[SchedulingProblem, Assignment]] = []

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        assignment = self._solve(problem)
        self._solved.append((problem, assignment))
        return assignment

    def drain(self) -> List[Tuple[SchedulingProblem, Assignment]]:
        solved, self._solved = self._solved, []
        return solved


def finite_positive(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value) and value > 0.0
