"""Fed-MinAvg (Algorithm 2): greedy min-average-cost assignment for
non-IID data.

Problem **P2** minimises the sum of compute/communication time and the
alpha-scaled accuracy cost of the selected users, subject to capacities
C_j and full allocation of D shards — a bin-packing-with-item-
fragmentation analogue where opening a "bin" (user) incurs the Eq.-(6)
accuracy cost.

The algorithm assigns one shard at a time to the candidate with the
minimum (time + alpha*F) value:

* while unopened users remain, an open user ``j`` competes with its
  *total* time at ``l_j + 1`` shards while an unopened user ``k``
  competes with its first-shard time plus its opening accuracy cost
  (Eq. 12);
* once everyone is open, all users compete at ``l + 1`` shards;
* after each assignment the winner's ``alpha * F_j`` is refreshed per
  Eq. (6) (line 10-13), and users at capacity are closed with
  ``F_j = inf`` (line 14-15).

Runs in O(D * n); D is the shard count ("m" in the paper's notation).
The time of user ``j``'s next shard is the cell ``cost[j, l_j]`` of the
matrix Fed-LBAP reads, so a step is a gather, two vector additions and
an ``argmin`` (:func:`fed_minavg` tabulates the matrix from curves).
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Tuple

import numpy as np

from .accuracy_cost import AccuracyCostTracker
from .schedule import Schedule

__all__ = ["fed_minavg", "fed_minavg_matrix"]


class AccuracyCosts(Protocol):
    """What the selection loop asks of an Eq.-(6) cost model."""

    def scaled_costs(self) -> np.ndarray:
        """Current ``alpha * F_j`` of every user."""

    def record_assignment(self, j: int) -> None:
        """Account one more shard scheduled to user ``j``."""


def _capacities(capacities: Optional[Sequence[int]], n: int) -> np.ndarray:
    if capacities is None:
        return np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    caps = np.asarray(capacities, dtype=np.int64)
    if caps.shape != (n,):
        raise ValueError("capacities length must match users")
    return caps


def tabulate_curves(
    time_curves: Sequence[Callable[[float], float]],
    total_shards: int,
    shard_size: int,
    capacities: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """``T_j((k+1) * shard_size)`` for every ``k < min(C_j, D)``: the
    cells Algorithm 2 can ask user ``j`` for, as a cost matrix (cells
    past a user's capacity are never read and stay 0)."""
    n = len(time_curves)
    if n == 0:
        raise ValueError("need at least one user")
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    reach = np.clip(_capacities(capacities, n), 0, total_shards).tolist()
    cost = np.zeros((n, max(max(reach), 1)))
    for j, curve in enumerate(time_curves):
        cost[j, : reach[j]] = [
            curve(float((k + 1) * shard_size)) for k in range(reach[j])
        ]
    return cost


def assign_greedily(
    cost: np.ndarray,
    total_shards: int,
    accuracy: AccuracyCosts,
    capacities: Optional[Sequence[int]] = None,
    comm_costs: Optional[Sequence[float]] = None,
    row_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Algorithm 2's selection loop; returns the shard counts.

    Each of the ``total_shards`` steps gives one shard to the user with
    the smallest ``cost[row_of[j], l_j] + alpha * F_j`` (plus ``j``'s
    one-off comm cost while it is unopened), the lowest index on exact
    ties; a user at capacity competes at +inf.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n, s = cost.shape
    if row_of is None:
        row_of = np.arange(n)
    n = len(row_of)
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains NaN/inf entries")
    # no users or no columns is no capacity
    caps = np.minimum(_capacities(capacities, n), s)
    if int(caps.sum()) < total_shards:
        raise ValueError(
            "infeasible: total capacity below the requested shards"
        )
    # what a user pays on top of its next cell: its comm cost until it
    # opens, nothing while it is open, +inf once it is at capacity
    # (lines 14-15; zero-cap users start there — and a user that filled
    # its whole row has no next cell, hence the clamp in the gather)
    extra = (
        np.zeros(n) if comm_costs is None else np.array(comm_costs, float)
    )
    if extra.shape != (n,):
        raise ValueError("comm_costs length must match users")
    extra[caps <= 0] = np.inf
    shards = np.zeros(n, dtype=np.int64)
    for _ in range(total_shards):
        total = (
            cost[row_of, np.minimum(shards, s - 1)] + extra
        ) + accuracy.scaled_costs()
        j = int(total.argmin())
        if total[j] == np.inf:
            raise RuntimeError(
                "no assignable user left (all closed) before D exhausted"
            )
        shards[j] += 1
        accuracy.record_assignment(j)
        extra[j] = 0.0 if shards[j] < caps[j] else np.inf
    return shards


def fed_minavg_matrix(
    cost: np.ndarray,
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    shard_size: int,
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    capacities: Optional[Sequence[int]] = None,
    comm_costs: Optional[Sequence[float]] = None,
    semantics: str = "disjoint",
    row_of: Optional[np.ndarray] = None,
) -> Schedule:
    """Fed-MinAvg on a cost matrix.

    ``cost[j, k]`` is user ``j``'s time for ``k+1`` shards (the Fed-LBAP
    matrix; rows need not be monotone here). With ``row_of`` it is the
    ``(g, s)`` distinct rows instead and user ``j``'s costs are
    ``cost[row_of[j]]`` — the answer is the one the gathered matrix
    gives, without building it. Capacities are clipped to the matrix
    width; the other arguments are those of :func:`fed_minavg`.
    """
    n = len(cost) if row_of is None else len(row_of)
    if len(user_classes) != n:
        raise ValueError("one class set per user required")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    tracker = AccuracyCostTracker(
        user_classes, num_classes, alpha, beta, semantics=semantics
    )
    shards = assign_greedily(
        cost, total_shards, tracker, capacities, comm_costs, row_of
    )
    return Schedule(
        shard_counts=shards,
        shard_size=shard_size,
        algorithm="fed-minavg",
        meta={
            "alpha": alpha,
            "beta": beta,
            "semantics": semantics,
            "coverage": tracker.coverage_fraction(),
        },
    )


def fed_minavg(
    time_curves: Sequence[Callable[[float], float]],
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    shard_size: int,
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    capacities: Optional[Sequence[int]] = None,
    comm_costs: Optional[Sequence[float]] = None,
    semantics: str = "disjoint",
) -> Schedule:
    """Run Fed-MinAvg and return the shard allocation.

    Parameters
    ----------
    time_curves:
        Per-user ``T_j(n_samples)`` callables (profiled curves).
    user_classes:
        Per-user class sets ``U_j`` (the users' meta-data report).
    total_shards:
        D, the number of shards to allocate.
    shard_size:
        Samples per shard (d in Algorithm 2).
    num_classes:
        K, classes in the test set.
    alpha, beta:
        The time/accuracy trade-off weights of Eq. (6).
    capacities:
        Optional per-user shard capacities C_j (default: unbounded).
    comm_costs:
        Optional per-user communication seconds, added to the opening
        cost of a user (a user only pays push/pull once per round).
    semantics:
        Eq.-(6) discount semantics: ``"disjoint"`` (default, matches the
        paper's Table IV behaviour), ``"coverage"``, ``"unique"``, or
        ``"strict"`` (the printed condition); see
        :mod:`repro.core.accuracy_cost`.
    """
    return fed_minavg_matrix(
        tabulate_curves(time_curves, total_shards, shard_size, capacities),
        user_classes,
        total_shards,
        shard_size,
        num_classes,
        alpha,
        beta=beta,
        capacities=capacities,
        comm_costs=comm_costs,
        semantics=semantics,
    )
