"""OLAR is Fed-LBAP's selection with the opposite give-back order.

``_reference_olar`` is the marginal-cost heap ``olar_assign`` used to
run, moved here verbatim: every shard in turn goes to the user whose
next shard costs least, the lowest user index first on ties. On
exactly non-decreasing rows its counts must equal ``olar_assign``'s,
``array_equal``, over ties, flat rows, zero and over-wide caps, one
user, D = sum of caps, the class form, denormal and 1e300 scales and
both signs of zero, and at a columnar fleet's cohort shape. Next to
the differential: the tie rule that tells OLAR from Fed-LBAP, the
makespan on rows that dip inside Fed-LBAP's tolerance, and the inputs
OLAR now refuses with Fed-LBAP's error.
"""

import heapq
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lbap import fed_lbap
from repro.fleet import UniformSampler, synthetic_fleet
from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.costs import fleet_problem
from repro.sched.olar import olar_assign


# -- the oracle: the heap greedy, verbatim ----------------------------------
def _reference_olar(
    cost: np.ndarray,
    total_shards: int,
    capacities: np.ndarray,
    row_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    row = np.arange(cost.shape[0]) if row_of is None else row_of
    n = row.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    heap: List[Tuple[float, int]] = [
        (float(cost[row[j], 0]), j) for j in range(n) if capacities[j] > 0
    ]
    heapq.heapify(heap)
    for _ in range(total_shards):
        if not heap:
            raise ValueError(
                "infeasible: capacities exhausted before all shards "
                "were assigned"
            )
        c, j = heapq.heappop(heap)
        counts[j] += 1
        if counts[j] < capacities[j]:
            heapq.heappush(heap, (float(cost[row[j], counts[j]]), j))
    return counts


def makespan(cost, counts, row_of=None):
    row = np.arange(len(cost)) if row_of is None else row_of
    used = counts > 0
    return float(cost[row[used], counts[used] - 1].max())


#: exact small integers, inexact fractions, denormals, the top of the
#: float64 range (a row of 60 steps of at most 2 stays below it)
SCALES = (1.0, 0.1, 5e-324, 3e-310, 1e300)


@st.composite
def monotone_instances(draw):
    """``(classes, member, total, caps)`` on exactly non-decreasing rows.

    Rows are cumulated steps of 0, 1 or 2 (ties within and across rows,
    flat runs, leading zeros, whole flat rows), zero cells of either
    sign. ``member`` is ``None`` (one row per user, duplicates allowed)
    or a class index with repeats. Caps run from 0 to two past the row
    width; the heap is handed them clipped, as ``OLARScheduler`` does.
    """
    g = draw(st.integers(1, 6))
    s = draw(st.integers(1, 60))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(0, 3, (g, s))
    steps[np.arange(s) < rng.integers(0, 5, (g, 1))] = 0
    if draw(st.booleans()):
        steps[rng.integers(0, g)] = 0
    classes = np.cumsum(steps, axis=1) * scale
    classes[(classes == 0) & (rng.random((g, s)) < 0.5)] = -0.0
    if draw(st.booleans()):
        member = None
        n = g
    else:
        member = rng.integers(0, g, draw(st.integers(1, 12)))
        n = member.size
    caps = rng.integers(0, s + 3, n)
    room = int(np.minimum(caps, s).sum())
    if room == 0:
        caps[rng.integers(0, n)] = s
        room = int(np.minimum(caps, s).sum())
    total = draw(
        st.one_of(
            st.just(1),
            st.just(room),
            st.integers(1, min(room, 2 * n)),
            st.integers(1, room),
        )
    )
    return classes, member, total, caps


@given(monotone_instances())
@settings(max_examples=400, deadline=None)
def test_counts_equal_the_heap_on_non_decreasing_rows(instance):
    classes, member, total, caps = instance
    width = classes.shape[1]
    want = _reference_olar(classes, total, np.minimum(caps, width), member)
    got = olar_assign(classes, total, caps, member)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


@pytest.fixture(scope="module")
def fleet():
    return synthetic_fleet(100_000, seed=0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_counts_equal_the_heap_at_a_fleet_cohort(fleet, seed):
    cohort = UniformSampler(seed).sample(np.ones(fleet.n, bool), 512)
    problem = fleet_problem(fleet, cohort)
    caps = problem.effective_capacities()
    want = _reference_olar(
        problem.time_rows, problem.total_shards, caps, problem.row_of
    )
    np.testing.assert_array_equal(
        olar_assign(
            problem.time_rows, problem.total_shards, caps, problem.row_of
        ),
        want,
    )
    assignment = get_scheduler("olar").schedule(problem)
    np.testing.assert_array_equal(assignment.schedule.shard_counts, want)


def test_ties_lowest_index_keeps_under_olar_gives_back_under_fed_lbap():
    cost = np.ones((3, 4))
    np.testing.assert_array_equal(olar_assign(cost, 1, [4, 4, 4]), [1, 0, 0])
    schedule, _ = fed_lbap(cost, 1, capacities=np.array([4, 4, 4]))
    np.testing.assert_array_equal(schedule.shard_counts, [0, 0, 1])


def test_makespan_equals_fed_lbaps_on_rows_that_dip_inside_the_tolerance():
    """A row may dip by up to 1e-9 and still pass Property 1's check;
    the two orders may then split the cells differently, but the
    makespan stays within the tolerance."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, 25))
        rows = np.cumsum(rng.integers(0, 3, (n, s)), axis=1) * 1.0
        rows = np.abs(rows + rng.integers(-1, 2, (n, s)) * 4e-10)
        caps = rng.integers(0, s + 1, n)
        room = int(caps.sum())
        if room == 0:
            continue
        total = int(rng.integers(1, room + 1))
        counts = olar_assign(rows, total, caps)
        assert counts.sum() == total
        assert (counts <= caps).all()
        schedule, _ = fed_lbap(rows, total, capacities=caps)
        assert abs(
            makespan(rows, counts) - makespan(rows, schedule.shard_counts)
        ) <= 1e-9


# -- inputs the heap let through ---------------------------------------------
def fed_lbap_error(cost, total, caps):
    with pytest.raises(ValueError) as exc:
        fed_lbap(cost, total, capacities=np.asarray(caps))
    return str(exc.value)


def test_rows_that_break_property1_are_refused():
    """The heap certified [0, 2] (makespan 4.0) as optimal here; the
    optimum is [2, 0] at 1.0."""
    problem = SchedulingProblem(
        time_cost=[[5.0, 1.0], [3.0, 4.0]], total_shards=2
    )
    with pytest.raises(ValueError, match=r"non-decreasing \(Property 1\)"):
        get_scheduler("olar").schedule(problem)


def test_a_cap_above_the_row_width_is_clipped():
    np.testing.assert_array_equal(olar_assign([[1.0, 2.0]], 2, [5]), [2])


@pytest.mark.parametrize(
    "cost, total, caps",
    [
        ([[1.0, np.nan]], 2, [2]),
        ([[1.0, 2.0], [1.0, 2.0]], 2, [2, -1]),
        ([[1.0, 2.0]], 1, [1.5]),
    ],
    ids=["nan-cell", "negative-cap", "float-cap"],
)
def test_bad_input_gets_fed_lbaps_error(cost, total, caps):
    want = fed_lbap_error(np.array(cost), total, caps)
    with pytest.raises(ValueError) as exc:
        olar_assign(np.array(cost), total, caps)
    assert str(exc.value) == want
