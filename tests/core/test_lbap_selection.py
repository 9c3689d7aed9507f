"""Fed-LBAP's selection of ``c*``: the D-th cheapest admissible cell.

The differential runs the selection at the shapes a columnar fleet
hands it (1, 2 or 4 class rows, up to 1 600 shard columns) against the
one-``searchsorted``-per-row loop in ``test_lbap_equivalence``, and
compares the bottleneck by its bits: a ``c*`` of the other sign of zero
is a different answer here, although ``-0.0 == 0.0``. Next to it: pins
of how many ``_counts_at`` calls a solve makes, the search-equivalent
row of a row that dips inside the tolerance, and the integer-only
capacities.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lbap
from repro.core.lbap import _LANES, _counts_at, _search_equivalent, fed_lbap
from repro.sched import SchedulingProblem

from .test_lbap_equivalence import _reference_fed_lbap, outcome

#: exact small integers, inexact fractions, denormals, the top of the
#: float64 range (a row of 1 600 steps of at most 2 stays below it)
SCALES = (1.0, 0.1, 5e-324, 3e-310, 1e300)


@st.composite
def fleet_instances(draw):
    """``(classes, member, total, caps)`` at fleet shapes.

    Class rows are cumulated steps of 0, 1 or 2 (ties within and across
    rows, flat runs, leading runs of zeros), optionally with a +-4e-10
    dip per cell (scales 1 and 0.1: elsewhere it would swamp or vanish
    in the row). Zero cells take a sign. ``np.unique`` picks which zero
    of a sorted array survives by position, so the reference, which
    runs ``np.unique`` on the gathered matrix, and the solver, which
    runs it on the distinct rows, see the same array only when every
    user has a row of its own: signs are mixed then, one sign per
    instance when users share rows.
    """
    g = draw(st.sampled_from((1, 2, 4)))
    s = draw(st.integers(1, 1_600))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(0, 3, (g, s))
    steps[np.arange(s) < rng.integers(0, 5, (g, 1))] = 0
    classes = np.cumsum(steps, axis=1) * scale
    if scale >= 0.1 and draw(st.booleans()):
        classes = np.abs(classes + rng.integers(-1, 2, (g, s)) * 4e-10)
    shared = draw(st.booleans())
    zero = classes == 0
    if shared:
        member = np.concatenate(
            [np.arange(g), rng.integers(0, g, draw(st.integers(1, 8)))]
        )
        classes[zero] = draw(st.sampled_from((0.0, -0.0)))
    else:
        member = np.arange(g)
        classes[zero & (rng.random((g, s)) < 0.5)] = -0.0
        if len(lbap._distinct_rows(classes)[0]) < g:
            classes[zero] = 0.0
    n = len(member)
    caps = None
    room = n * s
    if draw(st.booleans()):
        caps = rng.integers(0, s + 2, n)
        caps[rng.integers(0, n)] = 0
        room = int(np.minimum(caps, s).sum())
    room = max(room, 1)
    total = draw(
        st.one_of(
            st.just(1),
            st.integers(1, min(room, 2 * n)),
            st.just(room),
            st.integers(1, room),
        )
    )
    return classes, member, total, caps


def assert_same_bits_as_the_loop(classes, member, total, caps):
    want = outcome(_reference_fed_lbap, classes[member], total, caps)
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
    @settings(max_examples=400, deadline=None)
    @given(fleet_instances())
    def test_same_bits_as_the_loop_at_fleet_shapes(self, instance):
        assert_same_bits_as_the_loop(*instance)

    def test_zero_bottlenecks_of_either_sign(self):
        """Seeded: every instance's ``c*`` is a zero, its cells a mix
        of +0 and -0 whose order the merge and ``np.unique`` see
        differently."""
        rng = np.random.default_rng(33)
        for _ in range(300):
            g = int(rng.choice([1, 2, 4]))
            s = int(rng.integers(2, 64))
            zeros = rng.integers(1, s, (g, 1))
            classes = np.cumsum(
                (np.arange(s) >= zeros) * rng.integers(1, 3, (g, s)), axis=1
            ).astype(np.float64)
            classes[(classes == 0) & (rng.random((g, s)) < 0.5)] = -0.0
            if len(lbap._distinct_rows(classes)[0]) < g:
                continue
            member = np.arange(g)
            total = int(rng.integers(1, zeros.sum() + 1))
            assert_same_bits_as_the_loop(classes, member, total, None)


def fleet_shape(distinct_rows, n=512, s=1_100, seed=33):
    """Affine class rows, exactly sorted, as a fleet cohort has."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, s + 1)
    classes = (
        rng.uniform(0.5, 3.0, (distinct_rows, 1))
        + rng.uniform(0.05, 1.0, (distinct_rows, 1)) * k
    )
    return classes, np.arange(n) % distinct_rows


def dip(classes, rows, rng):
    """Dip one interior cell of each of ``rows`` 4e-10 below its left
    neighbour (inside the tolerance), in place."""
    for i in rows:
        k = int(rng.integers(1, classes.shape[1] - 1))
        classes[i, k] = classes[i, k - 1] - 4e-10


class TestProbes:
    """How many ``_counts_at`` calls one solve makes, and with how many
    thresholds."""

    @staticmethod
    def probes(monkeypatch, *args):
        calls = []
        kernel = lbap._counts_at

        def counted(rows, thresholds):
            calls.append(len(thresholds))
            return kernel(rows, thresholds)

        with monkeypatch.context() as patch:
            patch.setattr(lbap, "_counts_at", counted)
            fed_lbap(*args)
        return calls

    @pytest.mark.parametrize("g", [1, 4, 64])
    @pytest.mark.parametrize("capped", [False, True])
    def test_sorted_rows_take_one_probe_at_c_star(self, monkeypatch, g, capped):
        classes, row_of = fleet_shape(g)
        s = classes.shape[1]
        caps = None
        if capped:
            caps = np.random.default_rng(g).integers(0, s + 2, len(row_of))
        calls = self.probes(monkeypatch, classes, s, 500, caps, row_of)
        assert calls == [1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_dipping_row_takes_one_probe(self, monkeypatch, d):
        classes, row_of = fleet_shape(6, s=300)
        dip(classes, range(d), np.random.default_rng(d))
        calls = self.probes(monkeypatch, classes, 300, 500, None, row_of)
        assert len(calls) == d + 1, calls
        assert calls[-1] == 1

    def test_a_row_wider_than_the_lanes_takes_a_probe_per_lane_budget(
        self, monkeypatch
    ):
        s = 2 * _LANES + 5
        classes, row_of = fleet_shape(2, s=s)
        dip(classes, [0], np.random.default_rng(0))
        calls = self.probes(monkeypatch, classes, s, 500, None, row_of)
        distinct = len(np.unique(classes[0]))
        assert calls == [_LANES, _LANES, distinct - 2 * _LANES, 1]


class TestSearchEquivalentRow:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 80),
        st.sampled_from((4e-10, 6e-10, 0.5)),
        st.integers(0, 2**32 - 1),
    )
    def test_its_cells_below_t_count_what_the_row_bisects_to(
        self, s, unit, seed
    ):
        """On any row (dipping, or not sorted at all at 0.5) the
        substitute is sorted and counts ``searchsorted``'s answer at
        each of the row's values and between them."""
        rng = np.random.default_rng(seed)
        row = np.abs(
            np.cumsum(rng.integers(0, 3, s)) + rng.integers(-1, 2, s) * unit
        )
        out = _search_equivalent(row)
        assert (np.diff(out) >= 0).all()
        assert set(out.tolist()) <= set(row.tolist())
        values = np.unique(row)
        between = np.concatenate([values - 1e-10, values, values + 1e-10])
        want = _counts_at(row[None], between)[0]
        got = np.searchsorted(out, between, side="right")
        np.testing.assert_array_equal(got, want)


class TestIntegerCapacities:
    COST = np.array([[1.0, 2.0, 3.0], [1.0, 4.0, 9.0]])

    @pytest.mark.parametrize(
        "caps",
        [
            [1.9, 1.9],
            [True, True],
            [np.nan, 2.0],
            np.array([2, 2], dtype=np.float32),
            ["2", "2"],
        ],
        ids=["fractional", "bool", "nan", "float32", "str"],
    )
    def test_a_non_integer_dtype_is_refused(self, caps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                fed_lbap(self.COST, 2, capacities=caps)
        # the words a SchedulingProblem uses for the same caps
        with pytest.raises(ValueError) as problem:
            SchedulingProblem(
                time_cost=self.COST, total_shards=2, capacities=np.asarray(caps)
            )
        assert str(refused.value) == str(problem.value)
        assert "integer array" in str(refused.value)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64]
    )
    def test_every_integer_dtype_solves_alike(self, dtype):
        schedule, c_star = fed_lbap(
            self.COST, 3, capacities=np.array([1, 3], dtype=dtype)
        )
        assert schedule.shard_counts.tolist() == [1, 2]
        assert c_star == 4.0

    def test_a_list_of_ints_solves(self):
        schedule, _ = fed_lbap(self.COST, 3, capacities=[3, 0])
        assert schedule.shard_counts.tolist() == [3, 0]

    def test_a_wrong_length_is_refused_as_before(self):
        with pytest.raises(ValueError, match="capacities length must match"):
            fed_lbap(self.COST, 2, capacities=[1, 1, 1])
