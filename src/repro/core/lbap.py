"""Fed-LBAP (Algorithm 1): joint partitioning and assignment for IID data.

Problem **P1** asks for a data partition ``sum_j D_j = D`` minimising the
synchronous-round makespan ``max_j C[j, D_j]``. Because each user's cost
is non-decreasing in its own shard count (Property 1) and independent of
the others, a threshold ``c*`` is feasible exactly when

    sum_j  max{ k : C[j, k] <= c* }  >=  D,

so the optimal makespan is found by searching the sorted cost values —
the paper's O(ns log ns) binary search (O(n^2 log n) when s = n).

``fed_lbap`` returns both the optimal threshold and a concrete
allocation. No step loops over users in Python; the three steps are

1. **Duplicate-row collapse** (``_distinct_rows``). A cohort drawn from
   a handful of device classes has a handful of distinct cost rows.
   Rows are grouped by a cheap key (three cells), every row is then
   compared bit for bit with its group's first row, and a row that
   differs anywhere stays its own representative. Validation,
   ``np.unique`` and the threshold search run on the ``g x s``
   representatives; capacities and the allocation stay per user.
   O(ns) for the comparison, O(gs log gs) for the rest — O(ns log ns)
   when every row is distinct. A caller that already knows its
   distinct rows passes them with ``row_of`` (user ``j`` costs
   ``cost[row_of[j]]``): the collapse then compares the few rows it
   was given and nothing ``n x s`` is ever built.
2. **Wide-probe threshold search** (``_counts_at``). The per-row count
   for one threshold is ``searchsorted(row, c, side="right")``. A
   probe bisects every row against ``T`` thresholds at once (``g x T``
   lanes, ``ceil(log2 s)`` gathers), each lane visiting the cells a
   scalar ``searchsorted`` would, so rows that dip inside the 1e-9
   monotonicity tolerance get the count they always did. The search
   keeps a bracket of ``np.unique(rows)`` whose top is feasible; a
   probe takes all of it once it fits the lane budget ``_LANES``, else
   ``T = min(ceil(sqrt(bracket)), _LANES // g)`` thresholds spread
   over it, and narrows it to the first feasible one: ~``log_{T+1}``
   of the distinct values in probes of O(g T log s) — two for a few
   classes, a binary search above ``_LANES / 2`` rows. Any probe order
   finds the same ``c*``: two thresholds bisect a row, sorted or not,
   alike until the first ``mid`` where they part, and there the
   smaller ends ``<= mid``, the larger ``>= mid + 1``; so counts,
   capped counts and totals are monotone in the threshold. The
   per-user counts at ``c*`` come from the probe that evaluated it.
3. **Trim** (``_trim_to_total``). Each user gets its maximal
   within-threshold count, then the surplus over ``D`` is removed one
   shard at a time from the first user whose last shard costs most
   (never raising the bottleneck). That greedy works level by level:
   with ``m`` the highest last-shard cost, the first user at ``m``
   keeps giving shards while its last one still costs ``>= m``, then
   the next user at ``m`` does. So per level each user at ``m`` gives
   ``min(run_j, surplus left)`` in user order — one ``cumsum`` — where
   ``run_j`` is its trailing run of cells ``>= m``. For non-decreasing
   rows the first level is ``c*`` itself and is the only one: the
   value below ``c*`` was infeasible, so the cells equal to ``c*``
   outnumber the surplus. Further levels occur only when a row dips
   inside the tolerance under a binding capacity.

``solve_lbap_threshold_exact`` is a reference implementation of the
classic LBAP thresholding algorithm (perfect matching via
Hopcroft-Karp, as in Burkard et al.) used by the test-suite to validate
the Fed-LBAP extension on square instances.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .schedule import Schedule

__all__ = ["fed_lbap", "feasible_at_threshold", "solve_lbap_threshold_exact"]


#: Lanes (rows x thresholds) one probe may bisect at once. A probe is
#: ~11 steps of ~9 NumPy calls at any width, plus a per-lane part: on
#: a 2-core x86-64 host one ``_counts_at`` over 4 rows of 1 112 cells
#: takes 73 µs at 4 lanes, 145 µs at 1 024 and 291 µs at 4 096, and
#: ``fed_lbap`` on dense distinct rows (10 x 60 up to 1 000 x 2 000)
#: is within 5 % of its best for budgets of 256 to 2 048, 5-15 %
#: slower at 4 096. At 1 024 a cohort of a few classes takes two
#: probes; above 512 distinct rows the search is a binary search.
_LANES = 1024


def _counts_at(rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``searchsorted(rows[i], thresholds[t], side="right")`` as a
    ``(g, T)`` array.

    One bisection over all ``g x T`` lanes at once, each lane visiting
    the cells a scalar ``searchsorted`` would (``mid = lo + (hi - lo)
    // 2``), so the result is the same on rows that are not exactly
    sorted; a NaN threshold counts the whole row.
    """
    g, s = rows.shape
    t = np.asarray(thresholds, dtype=np.float64)
    hi = np.full((g, t.size), s, dtype=np.int64)
    # searchsorted orders NaN after every number: a NaN lane starts
    # finished, at s
    lo = np.where(t != t, hi, 0)
    flat = rows.reshape(-1)
    first = (np.arange(g, dtype=np.int64) * s)[:, None]
    for _ in range(s.bit_length()):
        mid = (lo + hi) >> 1
        # a finished lane has lo == hi == mid: it must not move, and
        # its mid may be s, one past the row (clipped on the last row)
        right = (flat.take(first + mid, mode="clip") <= t) & (lo < hi)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def feasible_at_threshold(
    cost: np.ndarray,
    threshold: float,
    total_shards: int,
    capacities: Optional[np.ndarray] = None,
) -> Tuple[bool, np.ndarray]:
    """Check Property-2 feasibility of a threshold.

    Returns ``(feasible, per-user maximal shard counts)``. Rows must be
    non-decreasing; for such a row the count of entries ``<=
    threshold`` is the insertion point of ``threshold`` on the right,
    optionally clipped to per-user capacities.
    """
    cost = np.asarray(cost, dtype=np.float64)
    counts = _counts_at(cost, np.array([threshold]))[:, 0]
    if capacities is not None:
        counts = np.minimum(counts, capacities)
    return int(counts.sum()) >= total_shards, counts


def _distinct_rows(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse bit-for-bit duplicate rows.

    Returns ``(rows, group)`` with ``cost[j]`` identical to
    ``rows[group[j]]``. Rows sharing a three-cell key are candidates;
    each is verified against the first row of its key over every cell,
    and one that differs (or whose key collided) represents itself.
    """
    n, s = cost.shape
    bits = cost.view(np.uint64)
    key = (
        bits[:, 0]
        ^ (bits[:, s // 2] * np.uint64(0x9E3779B97F4A7C15))
        ^ (bits[:, s - 1] * np.uint64(0xC2B2AE3D27D4EB4F))
    )
    _, first, inverse = np.unique(
        key, return_index=True, return_inverse=True
    )
    if first.size == n:
        # no two rows share a key: nothing to verify or collapse
        return cost, np.arange(n, dtype=np.int64)
    leader = first[inverse]
    same = (bits == bits[leader]).all(axis=1)
    leader = np.where(same, leader, np.arange(n))
    kept, group = np.unique(leader, return_inverse=True)
    return cost[kept], group


def _trim_to_total(
    rows: np.ndarray,
    group: np.ndarray,
    counts: np.ndarray,
    total_shards: int,
) -> np.ndarray:
    """Reduce an over-allocation to exactly ``total_shards`` shards.

    Equals removing one shard at a time from the first user whose
    current allocation has the highest cost (the move that never
    increases the realised makespan), done one cost level at a time;
    see the module docstring. User ``j``'s costs are
    ``rows[group[j]]``.
    """
    counts = counts.copy()
    surplus = int(counts.sum()) - total_shards
    if surplus < 0:
        raise ValueError("cannot trim: allocation already below total")
    s = rows.shape[1]
    flat = rows.reshape(-1)
    first = group * s
    while surplus > 0:
        if not counts.any():
            raise RuntimeError("trim ran out of shards to remove")
        # cost of each user's last shard (-inf when idle so idle users
        # are never trimmed)
        last = np.where(
            counts > 0, flat[first + np.maximum(counts, 1) - 1], -np.inf
        )
        level = last.max()
        users = np.flatnonzero(last == level)
        # trailing run of cells >= level per user, scanned in lock-step
        # from the last shard back; no user gives more than the surplus
        run = np.zeros(users.size, dtype=np.int64)
        start = first[users]
        end = counts[users] - 1
        running = np.ones(users.size, dtype=bool)
        for back in range(min(surplus, int(end.max()) + 1)):
            running &= end >= back
            running &= flat[start + np.maximum(end - back, 0)] >= level
            if not running.any():
                break
            run += running
        give = np.diff(np.minimum(np.cumsum(run), surplus), prepend=0)
        counts[users] -= give
        surplus -= int(give.sum())
    return counts


def fed_lbap(
    cost: np.ndarray,
    total_shards: int,
    shard_size: int = 1,
    capacities: Optional[np.ndarray] = None,
    row_of: Optional[np.ndarray] = None,
) -> Tuple[Schedule, float]:
    """Run Fed-LBAP on a cost matrix.

    Parameters
    ----------
    cost:
        ``(n_users, s)`` matrix, rows non-decreasing (Property 1);
        ``cost[j, k]`` is user ``j``'s cost to take ``k+1`` shards.
        With ``row_of`` it is the ``(g, s)`` distinct rows instead.
    total_shards:
        The D of Eq. (3), in shards.
    shard_size:
        Samples per shard (propagated into the Schedule).
    capacities:
        Optional per-user maximum shard counts (storage/battery limits,
        the P2-style C_j carried over to P1). The threshold search
        remains exact: feasibility clips each user at its capacity.
    row_of:
        Optional ``(n_users,)`` index: user ``j``'s costs are
        ``cost[row_of[j]]``. The answer is the one the gathered
        ``cost[row_of]`` matrix gives, without building it; every row
        of ``cost`` is validated, indexed or not.

    Returns
    -------
    schedule, bottleneck:
        The allocation and the optimal threshold ``c*`` (the minimal
        feasible bottleneck cost).
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    s = cost.shape[1]
    n = cost.shape[0] if row_of is None else len(row_of)
    if n == 0:
        raise ValueError(
            "need at least one user (the cost matrix has no rows)"
        )
    if s == 0:
        raise ValueError("cost matrix has no shard columns")
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    caps = None
    if capacities is not None:
        caps = np.minimum(np.asarray(capacities, dtype=np.int64), s)
        if caps.shape != (n,):
            raise ValueError("capacities length must match users")
        if (caps < 0).any():
            raise ValueError("capacities must be non-negative")
        if int(caps.sum()) < total_shards:
            raise ValueError(
                "infeasible: total capacity below the requested shards"
            )
    if total_shards > n * s:
        raise ValueError(
            f"infeasible: {total_shards} shards exceed capacity {n * s}"
        )
    # every distinct row is among the representatives, so each check
    # below holds for them exactly when it holds for the whole matrix
    rows, group = _distinct_rows(cost)
    if row_of is not None:
        group = group[row_of]
    if not np.isfinite(rows).all():
        raise ValueError("cost matrix contains NaN/inf entries")
    if (rows < 0).any():
        raise ValueError(
            "cost matrix contains negative entries (times are seconds)"
        )
    if (np.diff(rows, axis=1) < -1e-9).any():
        raise ValueError(
            "cost rows must be non-decreasing (Property 1); "
            "use cost.enforce_property1 first"
        )

    per_row = np.bincount(group, minlength=rows.shape[0])
    fit = max(_LANES // rows.shape[0], 1)  # thresholds one probe takes
    values = np.unique(rows)
    lo, hi = 0, len(values) - 1
    # Invariant: values[hi] is always feasible (the max cost admits every
    # cell, and total_shards <= n*s was checked above); at_hi holds the
    # per-user counts there once a probe has evaluated it.
    at_hi: Optional[np.ndarray] = None
    while lo < hi or at_hi is None:
        # the candidates: lo .. hi - 1, and hi itself until evaluated
        end = hi + (at_hi is None)
        if end - lo <= fit:
            pos = np.arange(lo, end)
        else:
            width = hi - lo
            wide = min(math.isqrt(width - 1) + 1, fit)
            pos = lo + np.arange(1, wide + 1) * width // (wide + 1)
        counts = _counts_at(rows, values[pos])
        if caps is None:
            totals = per_row @ counts
        else:
            counts = np.minimum(counts[group], caps[:, None])
            totals = counts.sum(axis=0)
        # totals rise with the threshold: this is the first feasible one
        i = int(np.searchsorted(totals, total_shards))
        if i < len(pos):
            hi = int(pos[i])
            at_hi = counts[group, i] if caps is None else counts[:, i]
        if i > 0:
            lo = int(pos[i - 1]) + 1
    c_star = float(values[hi])
    counts = _trim_to_total(rows, group, at_hi, total_shards)
    schedule = Schedule(
        shard_counts=counts,
        shard_size=shard_size,
        algorithm="fed-lbap",
        meta={"bottleneck": c_star},
    )
    schedule.validate_total(total_shards)
    return schedule, c_star


def solve_lbap_threshold_exact(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Classic square LBAP: assign n tasks to n users minimising the
    maximum cost, via threshold + Hopcroft-Karp perfect matching.

    Returns ``(assignment, bottleneck)`` where ``assignment[j]`` is the
    task index of user ``j``. Reference oracle for tests; O(n^2.5 log n).
    """
    import networkx as nx

    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("exact LBAP needs a square cost matrix")
    n = cost.shape[0]
    values = np.unique(cost)

    def matching_at(threshold: float) -> Optional[dict]:
        g = nx.Graph()
        users = [("u", j) for j in range(n)]
        tasks = [("t", i) for i in range(n)]
        g.add_nodes_from(users, bipartite=0)
        g.add_nodes_from(tasks, bipartite=1)
        js, is_ = np.nonzero(cost <= threshold)
        g.add_edges_from(
            (("u", int(j)), ("t", int(i))) for j, i in zip(js, is_)
        )
        match = nx.bipartite.maximum_matching(g, top_nodes=users)
        if sum(1 for k in match if k[0] == "u") == n:
            return match
        return None

    lo, hi = 0, len(values) - 1
    best = None
    while lo < hi:
        mid = (lo + hi) // 2
        m = matching_at(values[mid])
        if m is not None:
            best = m
            hi = mid
        else:
            lo = mid + 1
    if best is None or not matching_at(values[lo]):
        best = matching_at(values[lo])
    assert best is not None, "full-threshold matching must exist"
    assignment = np.empty(n, dtype=np.int64)
    for key, val in best.items():
        if key[0] == "u":
            assignment[key[1]] = val[1]
    return assignment, float(values[lo])
