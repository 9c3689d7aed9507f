"""Fed-LBAP (Algorithm 1): joint partitioning and assignment for IID data.

Problem **P1** asks for a data partition ``sum_j D_j = D`` minimising the
synchronous-round makespan ``max_j C[j, D_j]``. Because each user's cost
is non-decreasing in its own shard count (Property 1) and independent of
the others, a threshold ``c*`` is feasible exactly when

    sum_j  max{ k : C[j, k] <= c* }  >=  D,

so the optimal makespan is one of the sorted cost values — the paper
finds it by an O(ns log ns) binary search (O(n^2 log n) when s = n),
``fed_lbap`` by one weighted selection.

``fed_lbap`` returns both the optimal threshold and a concrete
allocation. No step loops over users in Python; the three steps are

1. **Duplicate-row collapse** (``_distinct_rows``). A cohort drawn from
   a handful of device classes has a handful of distinct cost rows.
   Rows are grouped by a cheap key (three cells), every row is then
   compared bit for bit with its group's first row, and a row that
   differs anywhere stays its own representative. Validation,
   ``np.unique`` and the selection run on the ``g x s``
   representatives; capacities and the allocation stay per user.
   O(ns) for the comparison, O(gs log g) for the rest — O(ns log n)
   when every row is distinct. A caller that already knows its
   distinct rows passes them with ``row_of`` (user ``j`` costs
   ``cost[row_of[j]]``): the collapse then compares the few rows it
   was given and nothing ``n x s`` is ever built.
2. **Selection** (``_select``). On a non-decreasing row a user's
   first ``min(cap_j, .)`` cells are its cheapest, so the feasibility
   total at a value ``v``, ``sum_j min(count_j(v), cap_j)``, is the
   weight of the cells ``<= v`` when cell ``[i, k]`` weighs the number
   of users on row ``i`` whose capacity admits a ``(k+1)``-th shard
   (all of row ``i``'s users without caps; with caps one ``bincount``
   over ``group * (s + 1) + caps`` and a reversed ``cumsum`` along the
   row). One stable argsort merges the ``g`` sorted rows, and ``c*``
   is the cell where the cumulative weight first reaches ``D``: the
   weight of the cells strictly below it is ``< D``, so no smaller
   value is feasible, and a zero-weight cell is never that position.
   The caps and size checks guarantee the total weight is ``>= D``.
   Equal cells share their bits but for the sign of zero, so a zero
   ``c*`` is read back from ``np.unique`` of the rows, the value a
   threshold search over ``np.unique`` returns. A row that dips
   inside the 1e-9 monotonicity tolerance (only hand-built matrices
   do: fleet, testbed and engine rows are a running max) is selected
   through its search-equivalent sorted row (``_search_equivalent``),
   whose cells ``<= t`` number what a scalar ``searchsorted`` of the
   row counts at every ``t``; the trim reads the rows as given. The
   per-user counts at ``c*`` come from one ``_counts_at`` probe there.
   O(gs log g) for the merge of sorted rows, plus O(n) for the
   weights and the probe.
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

from typing import Optional, Tuple

import numpy as np

from .schedule import Schedule

__all__ = ["fed_lbap", "feasible_at_threshold", "solve_lbap_threshold_exact"]


#: Thresholds one ``_counts_at`` call bisects a dipping row against
#: while ``_search_equivalent`` counts it at each of its distinct
#: values; a row with more distinct values takes one call per
#: ``_LANES`` of them, so a call's index arrays stay a few KiB.
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


def _search_equivalent(row: np.ndarray) -> np.ndarray:
    """The sorted row that ``row`` counts like.

    Cell ``k`` is the least distinct value of ``row`` whose
    ``_counts_at`` count exceeds ``k``. The count is monotone in the
    threshold and changes only at the row's own values, so the cells
    ``<= t`` of the result number the row's scalar-bisection count at
    every ``t``, sorted row or not.
    """
    values = np.unique(row)
    counts = np.concatenate(
        [
            _counts_at(row[None], values[at : at + _LANES])[0]
            for at in range(0, values.size, _LANES)
        ]
    )
    # the row's largest value counts every cell, so each k finds one
    return values[np.searchsorted(counts, np.arange(row.size), side="right")]


def _select(
    rows: np.ndarray,
    group: np.ndarray,
    caps: Optional[np.ndarray],
    total_shards: int,
) -> float:
    """The least cell value whose feasibility total reaches
    ``total_shards``, on non-decreasing ``rows``; see the module
    docstring. User ``j``'s costs are ``rows[group[j]]`` and at most
    its first ``caps[j]`` cells count."""
    g, s = rows.shape
    if caps is None:
        weight = np.repeat(np.bincount(group, minlength=g), s)
    else:
        # users on row i whose capacity is exactly c, for c = 0 .. s
        at = np.bincount(
            group * (s + 1) + caps, minlength=g * (s + 1)
        ).reshape(g, s + 1)
        # users on row i whose capacity exceeds k
        weight = np.cumsum(at[:, :0:-1], axis=1)[:, ::-1].reshape(-1)
    cells = rows.reshape(-1)
    # stable: a merge of g sorted runs, O(gs log g)
    order = np.argsort(cells, kind="stable")
    reach = np.cumsum(weight[order])
    return float(cells[order[np.searchsorted(reach, total_shards)]])


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
        the P2-style C_j carried over to P1), an integer array. The
        selection remains exact: a user's cells past its capacity weigh
        nothing.
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
        given = np.asarray(capacities)
        if given.dtype.kind not in "iu":
            raise ValueError(
                "capacities must be a 1-D integer array with one "
                f"entry per user: expected shape ({n},), "
                f"got {given.dtype} of shape {given.shape}"
            )
        caps = np.minimum(given.astype(np.int64), s)
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
    step = np.diff(rows, axis=1)
    if (step < -1e-9).any():
        raise ValueError(
            "cost rows must be non-decreasing (Property 1); "
            "use cost.enforce_property1 first"
        )

    sorted_rows = rows
    dipping = np.flatnonzero((step < 0).any(axis=1))
    if dipping.size:
        sorted_rows = rows.copy()
        for i in dipping:
            sorted_rows[i] = _search_equivalent(rows[i])
    c_star = _select(sorted_rows, group, caps, total_shards)
    if c_star <= 0.0:  # cells are >= 0: this is a zero
        # equal cells differ only in the sign of zero: read it as
        # np.unique keeps it, whichever zero cell the merge reached
        c_star = float(np.unique(rows)[0])
    counts = _counts_at(rows, np.array([c_star]))[group, 0]
    if caps is not None:
        counts = np.minimum(counts, caps)
    counts = _trim_to_total(rows, group, counts, total_shards)
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
