"""Engine integration: plan each sync round with a registered scheduler.

``EngineSchedulerBinding`` is the glue the
:class:`~repro.engine.engine.RoundEngine` calls when a scheduler is
bound (``engine.bind_scheduler(binding)``): before dispatching a
synchronous round it plans the per-user shard allocation, the engine
emits a :class:`~repro.engine.events.ScheduleComputed` event carrying
the assignment plus its predicted makespan/energy, and the round's
workloads and training subsets follow the plan.

The scheduler is chosen **per round**: pass a fixed scheduler (name or
instance) or a ``chooser(round_idx)`` callable — e.g. alternate
``fed_lbap`` and ``min_energy`` on odd/even rounds to trade speed
against battery. Users whose battery fails the engine's ``min_soc``
floor are excluded by zeroing their capacity for that round's instance.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..obs.prof import PROFILER
from .base import Assignment, Scheduler, SchedulingProblem
from .registry import get_scheduler

if TYPE_CHECKING:  # avoid the runtime sched <-> engine import cycle
    from ..engine.engine import RoundEngine

__all__ = [
    "EngineSchedulerBinding",
    "problem_from_engine",
    "restrict_problem",
    "timed_schedule",
]

SchedulerLike = Union[str, Scheduler, Callable[[int], Union[str, Scheduler]]]


def problem_from_engine(
    engine: "RoundEngine",
    shard_size: int = 100,
    with_energy: bool = True,
    alpha: float = 100.0,
    beta: float = 0.0,
    seed: int = 0,
) -> SchedulingProblem:
    """Build a scheduling instance from an engine's own substrates.

    :func:`~repro.sched.costs.testbed_problem` over the engine's phone
    names, model and batch size: it profiles fresh, jitter-free devices
    of those names (never the live ones — profiling resets
    thermal/battery state). The shard budget is the data the users
    collectively hold, and class sets are read off the partitions.
    """
    from ..device.device import MobileDevice
    from .costs import testbed_problem

    if engine.devices is None:
        raise ValueError(
            "the engine has no devices; scheduling needs a cost model"
        )
    for d in engine.devices:
        if not isinstance(d, MobileDevice):
            raise TypeError(
                "problem_from_engine profiles MobileDevice specs; for "
                "FleetStore views pass EngineSchedulerBinding(..., "
                "problem=fleet_problem(store, shard_size=...))"
            )
    total = sum(u.size for u in engine.users)
    if total <= 0:
        raise ValueError("no user holds any data")
    classes = [tuple(u.classes) for u in engine.users]
    return testbed_problem(
        [d.spec.name for d in engine.devices],
        model=engine.model,
        shard_size=shard_size,
        # users holding less than one shard still get one to place
        total_samples=max(total, shard_size),
        user_classes=classes if any(classes) else None,
        alpha=alpha,
        beta=beta,
        with_energy=with_energy,
        seed=seed,
        batch_size=engine.batch_size,
    )


def restrict_problem(
    problem: SchedulingProblem, eligible: Sequence[int]
) -> SchedulingProblem:
    """Restrict an instance to the eligible users by zeroing capacity.

    The shared re-plan entry point: both the engine binding (per-round
    ``min_soc`` gating) and the :mod:`repro.serve` coordinator (devices
    lost mid-round) funnel through here, so "ineligible means zero
    capacity, and an instance that cannot absorb the budget is
    infeasible" stays one rule. The restricted instance shares the
    frozen cost rows and the row index with ``problem``
    (:meth:`SchedulingProblem.with_capacities`).

    Raises ``ValueError`` when an entry of ``eligible`` is not a user
    index (negative, ``>= n_users`` or not an integer), and
    ``RuntimeError`` when the eligible users cannot absorb the shard
    budget.
    """
    index = np.asarray(list(eligible))
    if index.size and (index.ndim != 1 or index.dtype.kind not in "iu"):
        raise ValueError(
            "eligible must be a sequence of integer user indices, "
            f"got {index.dtype} of shape {index.shape}"
        )
    outside = index[(index < 0) | (index >= problem.n_users)]
    if outside.size:
        raise ValueError(
            f"eligible users {outside.tolist()} are not in "
            f"[0, {problem.n_users})"
        )
    caps = problem.effective_capacities().copy()
    mask = np.zeros(problem.n_users, dtype=bool)
    mask[index.astype(np.int64)] = True
    caps[~mask] = 0
    if int(caps.sum()) < problem.total_shards:
        raise RuntimeError(
            "infeasible round: eligible users cannot absorb the "
            f"shard budget ({int(caps.sum())} < {problem.total_shards})"
        )
    return problem.with_capacities(caps)


def timed_schedule(
    scheduler: Scheduler, problem: SchedulingProblem
) -> Assignment:
    """Solve one instance under the profiler's ``solve`` phase.

    Solver runtime is host cost, not virtual time: it is read off
    ``perf_counter`` (monotonic) and rides along in ``meta["solve_ms"]``
    — written here only — for ``repro sched compare`` and
    ``repro bench suite`` to report; no event carries it.
    """
    t0 = time.perf_counter()
    with PROFILER.phase("solve"):
        assignment = scheduler.schedule(problem)
    assignment.meta["solve_ms"] = (time.perf_counter() - t0) * 1e3
    return assignment


class EngineSchedulerBinding:
    """Per-round planner the engine consults when bound.

    Parameters
    ----------
    scheduler:
        Registry name, :class:`Scheduler` instance, or a callable
        ``round_idx -> name | Scheduler`` choosing per round.
    problem:
        A ready :class:`SchedulingProblem`; built lazily from the
        engine (:func:`problem_from_engine`) when omitted. An engine
        over ``FleetStore`` views needs
        ``fleet_problem(store, shard_size=...)`` here.
    shard_size:
        Shard granularity for the lazy builder.
    """

    def __init__(
        self,
        scheduler: SchedulerLike,
        problem: Optional[SchedulingProblem] = None,
        shard_size: int = 100,
        with_energy: bool = True,
    ) -> None:
        self._scheduler = scheduler
        self._problem = problem
        self._shard_size = shard_size
        self._with_energy = with_energy
        #: assignments planned so far, in round order
        self.assignments: List[Assignment] = []

    def _resolve(self, round_idx: int) -> Scheduler:
        choice = self._scheduler
        if callable(choice) and not isinstance(choice, Scheduler):
            choice = choice(round_idx)
        if isinstance(choice, str):
            return get_scheduler(choice)
        if isinstance(choice, Scheduler):
            return choice
        raise TypeError(
            "scheduler must be a registry name, Scheduler instance, or "
            "a round_idx -> scheduler callable"
        )

    def _instance(self, engine: "RoundEngine") -> SchedulingProblem:
        if self._problem is None:
            self._problem = problem_from_engine(
                engine,
                shard_size=self._shard_size,
                with_energy=self._with_energy,
            )
        return self._problem

    def plan_round(
        self, engine: "RoundEngine", round_idx: int, eligible: Sequence[int]
    ) -> Assignment:
        """Plan one round over the currently eligible users."""
        problem = self._instance(engine)
        if problem.n_users != len(engine.users):
            raise ValueError(
                "scheduling problem covers "
                f"{problem.n_users} users, engine has {len(engine.users)}"
            )
        instance = restrict_problem(problem, eligible)
        assignment = timed_schedule(self._resolve(round_idx), instance)
        self.assignments.append(assignment)
        return assignment
