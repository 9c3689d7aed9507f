"""Shared Fed-MinAvg plumbing for the non-IID experiments (Fig. 6/7,
Tables IV/V)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..sched import (
    DATASET_TOTALS,
    Assignment,
    get_scheduler,
    testbed_problem,
)
from ..sched.costs import DATASET_SHAPES
from .testbeds import testbed_names

__all__ = [
    "dataset_shape",
    "class_capacities",
    "schedule_minavg",
    "best_alpha_schedule",
]


def dataset_shape(dataset: str) -> Tuple[int, int, int]:
    if dataset not in DATASET_SHAPES:
        raise KeyError(
            f"unknown dataset {dataset!r}; one of {sorted(DATASET_SHAPES)}"
        )
    return DATASET_SHAPES[dataset]


def class_capacities(
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    num_classes: int = 10,
) -> List[int]:
    """Per-user shard capacities C_j from class availability.

    A user can at most store the data that exists of its classes: with a
    class-balanced global set of ``total_shards`` shards, each class
    accounts for ``total_shards / num_classes`` shards.
    """
    per_class = total_shards / num_classes
    return [
        max(1, int(round(len(cs) * per_class))) for cs in user_classes
    ]


def _assign_minavg(
    testbed: int,
    user_classes: Sequence[Tuple[int, ...]],
    dataset: str,
    model_name: str,
    alpha: float,
    beta: float,
    shard_size: int,
    use_capacities: bool,
) -> Assignment:
    """The registry's ``fed_minavg`` on the scenario's testbed problem."""
    names = testbed_names(testbed)
    if len(user_classes) != len(names):
        raise ValueError(
            f"scenario lists {len(user_classes)} users, testbed {testbed} "
            f"has {len(names)}"
        )
    problem = testbed_problem(
        testbed,
        dataset,
        model_name,
        shard_size,
        user_classes=user_classes,
        alpha=alpha,
        beta=beta,
        capacities=(
            class_capacities(
                user_classes, DATASET_TOTALS[dataset] // shard_size
            )
            if use_capacities
            else None
        ),
        with_energy=False,
    )
    return get_scheduler("fed_minavg").schedule(problem)


def schedule_minavg(
    testbed: int,
    user_classes: Sequence[Tuple[int, ...]],
    dataset: str,
    model_name: str,
    alpha: float,
    beta: float,
    shard_size: int = 250,
    use_capacities: bool = True,
) -> Schedule:
    """One Fed-MinAvg run for a scenario on its testbed."""
    return _assign_minavg(
        testbed,
        user_classes,
        dataset,
        model_name,
        alpha,
        beta,
        shard_size,
        use_capacities,
    ).schedule


def best_alpha_schedule(
    testbed: int,
    user_classes: Sequence[Tuple[int, ...]],
    dataset: str,
    model_name: str,
    alphas: Sequence[float],
    beta: float,
    shard_size: int = 250,
    makespan_fn=None,
) -> Tuple[Schedule, float]:
    """Search alpha over a grid and keep the schedule with the smallest
    makespan (the paper 'found the best alpha over [100, 5000]').

    ``makespan_fn(schedule) -> seconds`` scores candidates; by default
    the profiled bottleneck (the assignment's predicted makespan) is
    used.
    """
    best: Optional[Schedule] = None
    best_val = np.inf
    for alpha in alphas:
        assignment = _assign_minavg(
            testbed,
            user_classes,
            dataset,
            model_name,
            alpha,
            beta,
            shard_size,
            use_capacities=True,
        )
        val = (
            assignment.predicted_makespan_s
            if makespan_fn is None
            else float(makespan_fn(assignment.schedule))
        )
        if val < best_val:
            best_val = val
            best = assignment.schedule
    assert best is not None
    return best, best_val
