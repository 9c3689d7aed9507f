"""Fed-LBAP without per-user Python loops must answer exactly as the
loop it replaced.

``_reference_fed_lbap`` (with its two helpers) is that loop, moved here
verbatim: one ``np.searchsorted`` per row per probe, and a trim that
removes one shard at a time from the first user whose last shard costs
most. The differential tests require ``array_equal`` shard counts, an
``==`` bottleneck and the same exception type and message, over the
corners where a batched search, a level-wise trim or a duplicate-row
collapse could part ways with it.
"""

import sys
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute import brute_force_makespan
from repro.core.lbap import _distinct_rows, fed_lbap, feasible_at_threshold
from repro.core.schedule import Schedule


# -- the oracle: the pre-vectorisation implementation, verbatim -------------
def _reference_feasible_at_threshold(
    cost: np.ndarray,
    threshold: float,
    total_shards: int,
    capacities: Optional[np.ndarray] = None,
) -> Tuple[bool, np.ndarray]:
    # For a non-decreasing row, the count of entries <= threshold is the
    # insertion point of threshold on the right.
    counts = np.array(
        [int(np.searchsorted(row, threshold, side="right")) for row in cost],
        dtype=np.int64,
    )
    if capacities is not None:
        counts = np.minimum(counts, capacities)
    return int(counts.sum()) >= total_shards, counts


def _reference_trim_to_total(
    cost: np.ndarray, counts: np.ndarray, total_shards: int
) -> np.ndarray:
    counts = counts.copy()
    surplus = int(counts.sum()) - total_shards
    if surplus < 0:
        raise ValueError("cannot trim: allocation already below total")
    # current cost of each user's last shard (-inf when idle so idle
    # users are never "trimmed")
    while surplus > 0:
        current = np.array(
            [
                cost[j, counts[j] - 1] if counts[j] > 0 else -np.inf
                for j in range(len(counts))
            ]
        )
        j = int(np.argmax(current))
        if counts[j] == 0:
            raise RuntimeError("trim ran out of shards to remove")
        counts[j] -= 1
        surplus -= 1
    return counts


def _reference_fed_lbap(
    cost: np.ndarray,
    total_shards: int,
    shard_size: int = 1,
    capacities: Optional[np.ndarray] = None,
) -> Tuple[Schedule, float]:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n, s = cost.shape
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
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains NaN/inf entries")
    if (cost < 0).any():
        raise ValueError(
            "cost matrix contains negative entries (times are seconds)"
        )
    if (np.diff(cost, axis=1) < -1e-9).any():
        raise ValueError(
            "cost rows must be non-decreasing (Property 1); "
            "use cost.enforce_property1 first"
        )

    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    # Invariant: values[hi] is always feasible (the max cost admits every
    # cell, and total_shards <= n*s was checked above).
    while lo < hi:
        mid = (lo + hi) // 2
        feasible, _ = _reference_feasible_at_threshold(
            cost, values[mid], total_shards, caps
        )
        if feasible:
            hi = mid
        else:
            lo = mid + 1
    c_star = float(values[lo])
    _, counts = _reference_feasible_at_threshold(
        cost, c_star, total_shards, caps
    )
    counts = _reference_trim_to_total(cost, counts, total_shards)
    schedule = Schedule(
        shard_counts=counts,
        shard_size=shard_size,
        algorithm="fed-lbap",
        meta={"bottleneck": c_star},
    )
    schedule.validate_total(total_shards)
    return schedule, c_star


# -- comparison helpers -------------------------------------------------------
def outcome(solver, cost, total, capacities=None):
    """What a solver did: its answer, or the exception it raised."""
    try:
        schedule, bottleneck = solver(cost, total, 1, capacities)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return schedule.shard_counts, bottleneck


def assert_same_as_reference(cost, total, capacities=None):
    want = outcome(_reference_fed_lbap, cost, total, capacities)
    got = outcome(fed_lbap, cost, total, capacities)
    if isinstance(want[0], str):
        assert got == want
        return want
    assert not isinstance(got[0], str), got
    np.testing.assert_array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype
    assert got[1] == want[1]
    # the public probe, at the optimum and at the matrix's extremes
    for threshold in (want[1], float(cost.min()), float(cost.max())):
        ref = _reference_feasible_at_threshold(
            cost, threshold, total, capacities
        )
        new = feasible_at_threshold(cost, threshold, total, capacities)
        assert new[0] == ref[0]
        np.testing.assert_array_equal(new[1], ref[1])
        assert new[1].dtype == ref[1].dtype
    return want


def realised_makespan(cost, counts):
    return max(cost[j, k - 1] for j, k in enumerate(counts) if k > 0)


# -- instance generator -------------------------------------------------------
#: cost scales: exact small integers, inexact fractions, denormals and
#: the top of the float64 range (a cumulated row stays below 1.8e308)
SCALES = (1.0, 0.1, 5e-324, 3e-310, 1e300)

#: units of the below-tolerance wobble added to a row: 4e-10 keeps
#: every step inside the 1e-9 monotonicity tolerance, 6e-10 lets two
#: opposite wobbles exceed it (an input both sides must reject alike)
WOBBLES = (4e-10, 6e-10)


@st.composite
def instances(draw, max_users=7, max_slots=9, capacities=True):
    """``(cost, total_shards, capacities)`` built from a few class rows.

    Class rows are cumulated steps of 0, 1 or 2 (ties across rows, flat
    runs within them); users are assigned to classes, so duplicated
    rows are the rule. Optional extras: one interior cell nudged (a
    near-duplicate that keeps the first, middle and last cell of its
    class), a per-cell wobble below the monotonicity tolerance, and
    capacities that include zero and values above the matrix width.
    """
    n = draw(st.integers(1, max_users))
    s = draw(st.integers(1, max_slots))
    g = draw(st.integers(1, min(n, 3)))
    steps = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=s, max_size=s),
            min_size=g,
            max_size=g,
        )
    )
    scale = draw(st.sampled_from(SCALES))
    classes = np.cumsum(np.array(steps, dtype=np.float64), axis=1) * scale
    member = draw(st.lists(st.integers(0, g - 1), min_size=n, max_size=n))
    cost = classes[member]
    if scale == 1.0:
        nudged = draw(st.booleans())
        if nudged:
            j = draw(st.integers(0, n - 1))
            k = draw(st.integers(0, s - 1))
            cost[j, k] += draw(st.sampled_from((2.0**-40, 0.5)))
        if draw(st.booleans()):
            unit = draw(st.sampled_from(WOBBLES))
            wobble = draw(
                st.lists(
                    st.lists(st.integers(-1, 1), min_size=s, max_size=s),
                    min_size=g,
                    max_size=g,
                )
            )
            cost = np.abs(
                cost + np.array(wobble, dtype=np.float64)[member] * unit
            )
    caps = None
    if capacities and draw(st.booleans()):
        caps = np.array(
            draw(st.lists(st.integers(0, s + 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    room = n * s if caps is None else int(np.minimum(caps, s).sum())
    # D = 1, D = all the room there is, anything between, and one more
    # than fits (both sides must refuse it with the same words)
    total = draw(
        st.one_of(
            st.just(1),
            st.just(max(room, 1)),
            st.integers(1, max(room, 1) + 1),
        )
    )
    return cost, total, caps


class TestDifferential:
    @settings(max_examples=800, deadline=None)
    @given(instances())
    def test_same_answer_as_the_loop(self, instance):
        cost, total, caps = instance
        assert_same_as_reference(cost, total, caps)

    @settings(max_examples=150, deadline=None)
    @given(instances(max_users=4, max_slots=5, capacities=False), st.data())
    def test_makespan_is_the_brute_force_optimum(self, instance, data):
        cost, _, _ = instance
        # brute force assumes sorted rows: drop the sub-tolerance wobble
        cost = np.maximum.accumulate(cost, axis=1)
        n, s = cost.shape
        total = data.draw(st.integers(1, min(n * s, 8)))
        schedule, bottleneck = fed_lbap(cost, total)
        _, optimum = brute_force_makespan(cost, total)
        assert bottleneck == optimum
        assert realised_makespan(cost, schedule.shard_counts) == optimum

    def test_seeded_sweep_with_random_real_costs(self):
        """Continuous costs (all rows distinct, collapse finds nothing)
        next to class-structured ones, at sizes past the brute force."""
        rng = np.random.default_rng(2020)
        for trial in range(200):
            n = int(rng.integers(1, 24))
            s = int(rng.integers(1, 40))
            if trial % 2:
                cost = np.cumsum(rng.uniform(0.0, 1.0, (n, s)), axis=1)
            else:
                g = int(rng.integers(1, 5))
                classes = np.cumsum(
                    rng.integers(0, 3, (g, s)).astype(np.float64), axis=1
                )
                cost = classes[rng.integers(0, g, n)]
            caps = None
            room = n * s
            if trial % 3 == 0:
                caps = rng.integers(0, s + 2, n)
                room = int(np.minimum(caps, s).sum())
            total = int(rng.integers(1, max(room, 1) + 1))
            assert_same_as_reference(cost, total, caps)


class TestCorners:
    def test_one_user(self):
        cost = np.array([[1.0, 1.0, 2.0, 2.0, 3.0]])
        for total in range(1, 6):
            counts, bottleneck = assert_same_as_reference(cost, total)
            assert counts.tolist() == [total]
            assert bottleneck == cost[0, total - 1]

    def test_one_column(self):
        cost = np.array([[3.0], [1.0], [3.0], [2.0]])
        for total in range(1, 5):
            assert_same_as_reference(cost, total)
        counts, _ = assert_same_as_reference(cost, 3)
        # the surplus leaves the first user at the top level
        assert counts.tolist() == [0, 1, 1, 1]

    def test_single_shard_and_full_budget(self):
        cost = np.cumsum(np.ones((3, 4)), axis=1) * np.array(
            [[1.0], [2.0], [1.0]]
        )
        counts, bottleneck = assert_same_as_reference(cost, 1)
        assert counts.tolist() == [0, 0, 1] and bottleneck == 1.0
        counts, bottleneck = assert_same_as_reference(cost, 12)
        assert counts.tolist() == [4, 4, 4] and bottleneck == 8.0
        caps = np.array([2, 0, 3])
        counts, _ = assert_same_as_reference(cost, 5, caps)
        assert counts.tolist() == [2, 0, 3]

    def test_zero_capacity_rows_never_get_work(self):
        cost = np.tile(np.arange(1.0, 7.0), (5, 1))
        caps = np.array([0, 6, 0, 6, 0])
        counts, bottleneck = assert_same_as_reference(cost, 7, caps)
        assert counts.tolist() == [0, 3, 0, 4, 0]
        assert bottleneck == 4.0

    def test_flat_runs_give_back_in_user_order(self):
        # every cell of the plateau ties at c*; the loop drains user 0's
        # whole run before it touches user 1
        cost = np.array(
            [
                [1.0, 5.0, 5.0, 5.0],
                [1.0, 5.0, 5.0, 5.0],
                [2.0, 5.0, 5.0, 9.0],
            ]
        )
        counts, bottleneck = assert_same_as_reference(cost, 6)
        assert bottleneck == 5.0
        assert counts.tolist() == [1, 2, 3]

    def test_near_duplicates_are_not_merged(self):
        """Two rows equal in the first, middle and last cell — the
        cells the grouping key reads — but not in between."""
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = a.copy()
        b[1] = 2.5
        cost = np.stack([a, b, a, b])
        rows, group = _distinct_rows(cost)
        # the two a's share a row; each b failed the comparison with
        # its key's first row and stands for itself
        assert rows.shape == (3, 6)
        np.testing.assert_array_equal(rows[group], cost)
        # merging b into a would hand user 1 two shards at threshold 2
        counts, bottleneck = assert_same_as_reference(cost, 6)
        assert bottleneck == 2.0
        assert counts.tolist() == [2, 1, 2, 1]
        for total in range(1, 25):
            assert_same_as_reference(cost, total)

    def test_a_key_collision_costs_the_collapse_not_the_answer(self):
        """Rows that verify against nothing still represent themselves."""
        rng = np.random.default_rng(5)
        base = np.cumsum(rng.uniform(0.1, 1.0, 8))
        cost = np.tile(base, (6, 1))
        cost[3:, 2] += 1e-3  # second family: same key cells, new interior
        rows, group = _distinct_rows(cost)
        np.testing.assert_array_equal(rows[group], cost)
        assert rows.shape[0] == 4  # family one, then 3 singletons
        for total in (1, 7, 20, 48):
            assert_same_as_reference(cost, total)

    def test_signed_zero_and_nan_bits_do_not_fool_the_collapse(self):
        cost = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]])
        rows, group = _distinct_rows(cost)
        assert rows.shape[0] == 2
        assert_same_as_reference(cost, 3)

    def test_dips_inside_the_tolerance_follow_searchsorted(self):
        """A row that dips by less than 1e-9 is accepted; its count at a
        threshold between the two cells is whatever the bisection
        visits, and both sides must visit the same cells."""
        dip = 2.0 - 5e-10
        cost = np.array(
            [
                [1.0, 2.0, dip, 2.0, 3.0, 4.0, 5.0],
                [1.0, dip, dip, 2.0, 2.0, dip, 6.0],
                [dip, dip, 2.0, dip, 2.0, 2.0, 2.0],
            ]
        )
        for total in range(1, 22):
            assert_same_as_reference(cost, total)
        for total in range(1, 9):
            assert_same_as_reference(cost, total, np.array([1, 3, 4]))

    def test_a_capped_dip_sits_above_the_threshold(self):
        """The one case where a trimmed shard does not cost ``c*``:
        user 0's capacity binds on a cell just above it, so the loop
        takes that shard first."""
        dip = 2.0 - 5e-10
        cost = np.array([[2.0, dip], [1.0, dip]])
        caps = np.array([1, 2])
        counts, bottleneck = assert_same_as_reference(cost, 2, caps)
        assert bottleneck == dip
        assert counts.tolist() == [0, 2]

    @pytest.mark.parametrize("scale", [5e-324, 3e-310, 1e300])
    def test_denormal_and_huge_costs(self, scale):
        steps = np.array(
            [[1, 1, 2, 0, 3], [2, 0, 1, 1, 1], [1, 1, 2, 0, 3]],
            dtype=np.float64,
        )
        cost = np.cumsum(steps, axis=1) * scale
        for total in range(1, 16):
            assert_same_as_reference(cost, total)

    def test_nan_threshold_counts_every_cell(self):
        cost = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        ref = _reference_feasible_at_threshold(cost, float("nan"), 4)
        new = feasible_at_threshold(cost, float("nan"), 4)
        assert new[0] == ref[0]
        np.testing.assert_array_equal(new[1], ref[1])

    def test_non_contiguous_input(self):
        cost = np.cumsum(
            np.random.default_rng(3).uniform(0, 1, (9, 6)), axis=0
        ).T  # (6, 9), Fortran order, rows non-decreasing
        assert not cost.flags.c_contiguous
        for total in (1, 10, 54):
            assert_same_as_reference(cost, total)


class TestErrorParity:
    """A bad cell is found whether it sits in the row that represents
    its group (the first of its duplicates) or in a later duplicate,
    and whether or not the grouping key reads that cell."""

    BAD = {
        "nan": float("nan"),
        "inf": float("inf"),
        "negative": -1.0,
        "non_monotone": 0.25,
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("row", [0, 1, 3, 5])
    @pytest.mark.parametrize("column", [0, 1, 3, 5])
    def test_bad_cell_anywhere(self, kind, row, column):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = 2.0 * a
        cost = np.stack([a, b, a, a, b, b])  # rows 0 and 1 represent
        cost[row, column] = self.BAD[kind]
        want = assert_same_as_reference(cost, 7)
        if kind == "non_monotone" and column == 0:
            # lowering the first cell keeps the row sorted
            assert not isinstance(want[0], str)
        else:
            assert want[0] == "ValueError"

    def test_two_defects_report_the_one_the_loop_reports(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        cost = np.stack([a, a, a, a])
        cost[3, 1] = -1.0  # negative and non-monotone in a duplicate
        cost[1, 2] = float("nan")
        want = assert_same_as_reference(cost, 3)
        assert want == ("ValueError", "cost matrix contains NaN/inf entries")

    def test_shape_and_budget_errors(self):
        cost = np.cumsum(np.ones((3, 4)), axis=1)
        for bad_cost in (cost[0], cost[:0], cost[:, :0], np.float64(1.0)):
            want = outcome(_reference_fed_lbap, bad_cost, 2)
            assert outcome(fed_lbap, bad_cost, 2) == want
            assert want[0] == "ValueError"
        for total in (0, -3, 13):
            assert assert_same_as_reference(cost, total)[0] == "ValueError"
        for caps in (
            np.array([1, 1]),
            np.array([4, -1, 4]),
            np.array([1, 0, 1]),
        ):
            want = assert_same_as_reference(cost, 3, caps)
            assert want[0] == "ValueError"


class TestNoPerUserPythonLoop:
    """Host-independent pin on the solver's shape: the number of
    function calls (Python and C) one solve makes does not grow with
    the number of users. The loop made about 140 000 at this size."""

    @staticmethod
    def count_calls(fn):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return calls

    @pytest.mark.parametrize("distinct_rows", [4, 512])
    def test_call_count_at_cohort_512(self, distinct_rows):
        rng = np.random.default_rng(14)
        n, s = 512, 1137
        classes = np.cumsum(
            rng.uniform(0.01, 1.0, (distinct_rows, s)), axis=1
        )
        cost = classes[np.arange(n) % distinct_rows]
        caps = rng.integers(0, s + 1, n)
        # numpy imports numpy.ma on the first np.unique of a process
        fed_lbap(cost[:2, :2], 1)
        result = []
        calls = self.count_calls(
            lambda: result.append(fed_lbap(cost, s, 500, caps))
        )
        assert calls < 2_000, calls
        schedule, bottleneck = result[0]
        assert schedule.total_shards == s
        assert realised_makespan(cost, schedule.shard_counts) == bottleneck
