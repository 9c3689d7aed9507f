"""Fed-LBAP on exactly non-decreasing rows: ``c*`` selected below a
feasible bound.

Every fleet, testbed and engine row is a running max, so ``fed_lbap``
bounds ``c*`` by the makespan of a feasible split, probes the rows once
there, merges only the cells at or below the bound and reads the counts
and the trim off that merge. The differential here holds that path to
the one-``searchsorted``-per-row loop of ``test_lbap_equivalence`` bit
for bit, from one user up to a 512-user cohort over 64 rows. Next to
it: the P1 optimality certificate at fleet shapes, counted
independently of the solver; host-independent pins of how much the
merge receives and how many calls one solve makes; and the checks on
``row_of``.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lbap
from repro.core.lbap import fed_lbap
from repro.sched import SchedulingProblem
from repro.sched.olar import olar_assign

from . import test_lbap_equivalence as equivalence
from .test_lbap_equivalence import _reference_fed_lbap, outcome
from .test_lbap_probes import fleet_shape

#: exact small integers, inexact fractions, denormals, the top of the
#: float64 range (a row of 64 steps of at most 2 stays below it)
SCALES = (1.0, 0.1, 5e-324, 3e-310, 1e300)


@st.composite
def sorted_instances(draw):
    """``(classes, member, total, caps)``: g exactly non-decreasing
    class rows and n users on them (rows nobody uses included).

    Rows are cumulated steps of 0, 1 or 2 with leading runs of zeros;
    some rows are flat (one value throughout) and some are all zero.
    Zero cells take a sign: mixed when every user has a row of its own,
    one sign per instance when users share rows (``np.unique`` keeps
    the zero it meets first, and the reference runs it on the gathered
    matrix, the solver on the distinct rows).
    """
    g = draw(st.integers(1, 64), label="g")
    n = draw(st.one_of(st.just(1), st.just(g), st.integers(1, 512)), label="n")
    # the loop trims one shard per pass over the users: n x s stays
    # small enough for it
    s = draw(st.integers(1, max(1, min(64, 2_048 // n))), label="s")
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(0, 3, (g, s))
    steps[np.arange(s) < rng.integers(0, 5, (g, 1))] = 0
    flat = rng.random(g) < 0.2
    steps[flat, 1:] = 0
    steps[flat & (rng.random(g) < 0.5)] = 0
    classes = np.cumsum(steps, axis=1) * scale
    zero = classes == 0
    if n == g and len(lbap._distinct_rows(classes)[0]) == g:
        member = np.arange(g)
        classes[zero & (rng.random((g, s)) < 0.5)] = -0.0
        if len(lbap._distinct_rows(classes)[0]) < g:
            classes[zero] = 0.0
    else:
        member = rng.integers(0, g, n)
        classes[zero] = draw(st.sampled_from((0.0, -0.0)))
    caps = None
    room = n * s
    if draw(st.booleans()):
        caps = rng.integers(0, s + 2, n)
        caps[rng.random(n) < 0.25] = 0
        room = int(np.minimum(caps, s).sum())
    room = max(room, 1)
    total = draw(
        st.one_of(
            st.just(1),
            st.just(room),
            st.integers(1, min(room, 2 * n)),
            st.integers(1, room),
        )
    )
    return classes, member, total, caps


def assert_bounded_path_matches_the_loop(classes, member, total, caps):
    assert (np.diff(classes, axis=1) >= 0).all()
    want = outcome(_reference_fed_lbap, classes[member], total, caps)
    # the level-wise trim belongs to dipping rows only
    with mock.patch.object(lbap, "_trim_to_total", side_effect=AssertionError):
        dense = outcome(fed_lbap, classes[member], total, caps)
        class_form = outcome(
            functools.partial(fed_lbap, row_of=member), classes, total, caps
        )
    for got in (dense, class_form):
        if isinstance(want[0], str):
            assert got == want
            continue
        assert not isinstance(got[0], str), got
        np.testing.assert_array_equal(got[0], want[0])
        assert got[0].dtype == want[0].dtype
        assert got[1].hex() == want[1].hex()


class TestDifferential:
    @settings(max_examples=250, deadline=None)
    @given(sorted_instances())
    def test_same_bits_as_the_loop(self, instance):
        assert_bounded_path_matches_the_loop(*instance)

    @pytest.mark.parametrize("total", [1, 2, 5])
    def test_one_user(self, total):
        row = np.array([[0.0, 1.0, 1.0, 2.0, 4.0]])
        assert_bounded_path_matches_the_loop(row, np.array([0]), total, None)
        assert_bounded_path_matches_the_loop(
            row, np.array([0]), total, np.array([total])
        )

    def test_capacities_that_sum_to_the_budget(self):
        """D = sum of caps: every user fills its cap, zero caps none."""
        classes, member = fleet_shape(8, n=64, s=40)
        caps = np.random.default_rng(3).integers(0, 41, 64)
        caps[::5] = 0
        total = int(caps.sum())
        assert_bounded_path_matches_the_loop(classes, member, total, caps)
        schedule, _ = fed_lbap(classes, total, 1, caps, member)
        np.testing.assert_array_equal(schedule.shard_counts, caps)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_rows(self, zero):
        """Every cell a zero of one sign: ``c*`` is that zero."""
        classes = np.full((3, 6), zero)
        member = np.array([0, 1, 2, 1])
        for total in (1, 7, 24):
            assert_bounded_path_matches_the_loop(classes, member, total, None)
        _, c_star = fed_lbap(classes, 7, row_of=member)
        assert c_star.hex() == zero.hex()

    def test_flat_rows_give_back_in_user_order(self):
        """Rows flat at ``c*``: the trim drains user 0's run first."""
        classes = np.array([[1.0, 5.0, 5.0, 5.0], [2.0, 5.0, 5.0, 5.0]])
        member = np.array([0, 0, 1])
        schedule, c_star = fed_lbap(classes, 6, row_of=member)
        assert c_star == 5.0
        assert schedule.shard_counts.tolist() == [1, 1, 4]
        assert_bounded_path_matches_the_loop(classes, member, 6, None)


def admissible_weight(cost, caps, value):
    """Shards the users could take at cost ``value``: one scalar
    ``searchsorted`` per user's row, clipped to its cap."""
    counts = np.array(
        [np.searchsorted(row, value, side="right") for row in cost]
    )
    return int(np.minimum(counts, caps).sum())


class TestCertificate:
    """P1 optimality at fleet shapes, counted without the solver: the
    users can take fewer than D shards strictly below ``c*`` and at
    least D at ``c*``, and the schedule realises ``c*``."""

    @pytest.mark.parametrize("g", [4, 64, 512])
    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("total", [1, 500, 1_100, 40_000])
    def test_c_star_is_the_least_feasible_value(self, g, capped, total):
        classes, row_of = fleet_shape(g)
        s = classes.shape[1]
        cost = classes[row_of]
        caps = np.full(len(row_of), s)
        if capped:
            rng = np.random.default_rng(g + total)
            caps = rng.integers(0, s + 2, len(row_of))
            caps[rng.random(len(row_of)) < 0.1] = 0
        schedule, c_star = fed_lbap(classes, total, 1, caps, row_of)
        below = np.nextafter(c_star, -np.inf)
        assert admissible_weight(cost, caps, below) < total
        assert admissible_weight(cost, caps, c_star) >= total
        counts = schedule.shard_counts
        assert int(counts.sum()) == total
        assert (counts <= np.minimum(caps, s)).all()
        active = np.flatnonzero(counts)
        assert cost[active, counts[active] - 1].max() == c_star

    @pytest.mark.parametrize("g", [4, 512])
    @pytest.mark.parametrize("capped", [False, True])
    def test_olar_reaches_the_same_makespan(self, g, capped):
        """OLAR (Pilla '20) is exact for monotone costs: its makespan
        is ``c*`` at the closed loop's shape too."""
        classes, row_of = fleet_shape(g)
        s = classes.shape[1]
        caps = np.full(len(row_of), s)
        if capped:
            caps = np.random.default_rng(g).integers(0, s + 2, len(row_of))
        counts = olar_assign(classes, s, caps, row_of)
        _, c_star = fed_lbap(classes, s, 1, caps, row_of)
        active = np.flatnonzero(counts)
        assert classes[row_of[active], counts[active] - 1].max() == c_star


class TestMergeSize:
    """Host-independent pin: the merge sorts the cells below the bound,
    not the rows."""

    @staticmethod
    def merged(monkeypatch, *args):
        """Cells each ``np.argsort`` in one ``fed_lbap(*args)`` sorted."""
        sizes = []
        argsort = np.argsort

        def counted(cells, *rest, **kwargs):
            sizes.append(np.size(cells))
            return argsort(cells, *rest, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(lbap.np, "argsort", counted)
            fed_lbap(*args)
        return sizes

    @pytest.mark.parametrize("capped", [False, True])
    def test_512_rows_merge_at_most_five_percent(self, monkeypatch, capped):
        classes, row_of = fleet_shape(512)
        s = classes.shape[1]
        caps = None
        if capped:
            caps = np.random.default_rng(512).integers(0, s + 2, len(row_of))
        sizes = self.merged(monkeypatch, classes, s, 500, caps, row_of)
        assert len(sizes) == 1, sizes
        assert sizes[0] <= 0.05 * classes.size, sizes


class TestCallCount:
    def test_call_count_at_the_fleet_shape(self):
        """Python and C calls of one solve at the 4-class shape."""
        classes, row_of = fleet_shape(4)
        s = classes.shape[1]
        # numpy may import a module on a process's first call
        fed_lbap(classes[:2, :2], 1)
        calls = equivalence.TestNoPerUserPythonLoop.count_calls(
            lambda: fed_lbap(classes, s, 500, None, row_of)
        )
        # 200 with the full merge and the lane probe; 93 below the bound
        assert calls < 110, calls


class TestRowOf:
    COST = np.array([[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]])

    @pytest.mark.parametrize(
        "row_of",
        [[-1, 0], [0, 2], [[0, 1]], [0.0, 1.0], [True, False]],
        ids=["negative", "past the rows", "2-D", "float", "bool"],
    )
    def test_a_bad_index_is_refused_in_the_problem_s_words(self, row_of):
        with pytest.raises(ValueError) as refused:
            fed_lbap(self.COST, 3, row_of=row_of)
        with pytest.raises(ValueError) as problem:
            SchedulingProblem(
                time_rows=self.COST, row_of=np.asarray(row_of), total_shards=3
            )
        assert str(refused.value) == str(problem.value)

    def test_a_list_index_solves(self):
        schedule, c_star = fed_lbap(self.COST, 3, row_of=[1, 0])
        assert schedule.shard_counts.tolist() == [0, 3]
        assert c_star == 3.0
