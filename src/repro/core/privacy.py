"""Privacy-preserving Fed-MinAvg (Sec. VI-A).

"In practice, the users could truthfully report their accuracy cost
instead of detailed U_j to reduce privacy leakage of class-level
information." This module implements that deployment mode: the server
receives only each user's scalar base accuracy cost ``alpha * K/|U_j|``
(or any truthful scalar the user computes locally) — never the class
sets themselves.

The cost of the privacy: without class sets the server cannot evaluate
the beta discount (it needs class relationships between users), so the
discount degrades to a *user-reported* flag stream — each round a user
may report "my classes are still underrepresented" (one bit, locally
computable against the public class histogram the server broadcasts).
With ``beta = 0`` the private mode is exactly equivalent to the full
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .minavg import assign_greedily, tabulate_curves
from .schedule import Schedule

__all__ = ["fed_minavg_private"]


@dataclass
class _ReportedCosts:
    """The server's view of Eq. (6): scalar reports, plus ``beta * D_u``
    off every user whose flag is up."""

    reported: np.ndarray
    beta: float
    discount_flags: Optional[Callable[[int, int], bool]]
    d_u: int = 0

    def scaled_costs(self) -> np.ndarray:
        flags = self.discount_flags
        if not (self.beta > 0 and flags is not None):
            return self.reported
        flagged = [
            bool(flags(j, self.d_u)) for j in range(len(self.reported))
        ]
        return self.reported - np.where(flagged, self.beta * self.d_u, 0.0)

    def record_assignment(self, j: int) -> None:
        self.d_u += 1


def fed_minavg_private(
    time_curves: Sequence[Callable[[float], float]],
    reported_costs: Sequence[float],
    total_shards: int,
    shard_size: int,
    beta: float = 0.0,
    discount_flags: Optional[Callable[[int, int], bool]] = None,
    capacities: Optional[Sequence[int]] = None,
    comm_costs: Optional[Sequence[float]] = None,
) -> Schedule:
    """Fed-MinAvg from scalar cost reports only.

    Parameters
    ----------
    time_curves:
        Per-user ``T_j(n_samples)`` (from profiles — no class info).
    reported_costs:
        Per-user ``alpha * F_j`` base values, computed *locally* by each
        user from its own class count (the server never sees ``U_j``).
    beta, discount_flags:
        Optional one-bit feedback channel: ``discount_flags(j, D_u)``
        returns True when user ``j`` (locally) determines its classes
        are still missing from the public coverage summary; the server
        then applies the ``beta * D_u`` deduction. ``None`` disables the
        discount (pure-scalar mode).
    """
    reported = np.asarray(reported_costs, dtype=np.float64)
    if reported.shape != (len(time_curves),):
        raise ValueError("one reported cost per user required")
    shards = assign_greedily(
        tabulate_curves(time_curves, total_shards, shard_size, capacities),
        total_shards,
        _ReportedCosts(reported, beta, discount_flags),
        capacities,
        comm_costs,
    )
    return Schedule(
        shard_counts=shards,
        shard_size=shard_size,
        algorithm="fed-minavg-private",
        meta={"beta": beta, "private": True},
    )
