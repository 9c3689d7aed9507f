"""Fed-LBAP's wide-probe threshold search: the kernel, the property that
makes every probe order land on the same threshold, and the search at
shapes where it takes more than one probe.

``_counts_at`` bisects every row against several thresholds at once and
must count what a scalar ``np.searchsorted(row, t, side="right")``
counts, lane by lane, on any row — sorted or not. On any row that count
is monotone in the threshold, so "the first feasible cost value" is one
index however the search brackets it. The differential here runs the
search at the shapes the small-instance generator of
``test_lbap_equivalence`` never reaches: brackets wider than one probe
(a few class rows, hundreds to 1 500 columns) and more distinct rows
than the lane budget allows two thresholds for (one threshold per
probe, a plain binary search).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lbap
from repro.core.lbap import _LANES, _counts_at, fed_lbap

from . import test_lbap_equivalence as equivalence

#: the float corners a count must survive: signed zeros, the smallest
#: denormal, the top of the range, infinities, NaN, and small integers
#: that sub-tolerance dips can sit between
SPECIAL = (0.0, -0.0, 5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan,
           1.0, 2.0, 3.0)

CELLS = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def rows_and_thresholds(draw):
    """``(rows, thresholds)``: g x s rows as drawn, sorted, or sorted
    with a below-tolerance dip of +-4e-10 per cell; thresholds drawn
    from the rows' own cells and from any float, NaN included."""
    g = draw(st.integers(1, 4))
    s = draw(st.integers(1, 33))
    rows = np.array(
        draw(st.lists(st.lists(CELLS, min_size=s, max_size=s),
                      min_size=g, max_size=g)),
        dtype=np.float64,
    )
    order = draw(st.sampled_from(("as drawn", "sorted", "dipped")))
    if order != "as drawn":
        rows = np.sort(rows, axis=1)
    if order == "dipped":
        wobble = draw(st.lists(st.integers(-1, 1), min_size=g * s,
                               max_size=g * s))
        rows = rows + np.reshape(wobble, (g, s)) * 4e-10
    cell = st.sampled_from(rows.ravel().tolist())
    thresholds = draw(
        st.lists(st.one_of(cell, CELLS), min_size=1, max_size=6)
    )
    return rows, np.array(thresholds, dtype=np.float64)


class TestKernel:
    @settings(max_examples=400, deadline=None)
    @given(rows_and_thresholds())
    def test_every_lane_is_a_scalar_searchsorted(self, instance):
        rows, thresholds = instance
        want = np.array(
            [
                [np.searchsorted(row, t, side="right") for t in thresholds]
                for row in rows
            ],
            dtype=np.int64,
        )
        got = _counts_at(rows, thresholds)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(rows_and_thresholds())
    def test_the_count_is_monotone_in_the_threshold(self, instance):
        """Two thresholds bisect alike until the first ``mid`` where
        they part; there the smaller goes left, the larger right. So on
        any row, unsorted included, a larger threshold never counts
        fewer cells (NaN sorts last and counts the whole row)."""
        rows, thresholds = instance
        counts = _counts_at(rows, np.sort(thresholds))
        assert (np.diff(counts, axis=1) >= 0).all()


def class_instance(rng, g, s, n, capped, dipped):
    """``(classes, member, total, caps)``: g class rows of s cells on a
    dyadic grid (exact sums; ties within and across rows, one step in
    eight flat), n >= g users spread over them, and a budget of 1, all
    the room there is, or anything between."""
    steps = rng.integers(1, 16, (g, s)) * (rng.random((g, s)) >= 0.125)
    classes = np.cumsum(steps, axis=1) / 64.0
    if dipped:
        classes = np.abs(classes + rng.integers(-1, 2, (g, s)) * 4e-10)
    member = np.concatenate([np.arange(g), rng.integers(0, g, n - g)])
    caps = None
    room = n * s
    if capped:
        caps = rng.integers(0, s + 2, n)
        caps[rng.integers(0, n)] = 0
        room = int(np.minimum(caps, s).sum())
    room = max(room, 1)
    total = int(rng.choice([1, room, rng.integers(1, room + 1)]))
    return classes, member, total, caps


def assert_both_forms_match(classes, member, total, caps):
    """The dense matrix and the rows + index form, against the loop."""
    want = equivalence.assert_same_as_reference(classes[member], total, caps)
    got = equivalence.outcome(
        functools.partial(fed_lbap, row_of=member), classes, total, caps
    )
    if isinstance(want[0], str):
        assert got == want
        return
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


#: columns a cohort of g class rows needs before its distinct cost
#: values outnumber the thresholds one probe takes (1 024 // g)
MIN_COLUMNS = {1: 1_300, 2: 400, 4: 200}


class TestWideShapes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(MIN_COLUMNS)),
        st.data(),
        st.integers(0, 8),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_several_probe_levels(
        self, g, data, extra, capped, dipped, seed
    ):
        s = data.draw(st.integers(MIN_COLUMNS[g], 1_500), label="s")
        rng = np.random.default_rng(seed)
        classes, member, total, caps = class_instance(
            rng, g, s, g + extra, capped, dipped
        )
        assert len(np.unique(classes)) > _LANES // g
        assert_both_forms_match(classes, member, total, caps)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(_LANES // 2 + 1, _LANES // 2 + 40),
        st.integers(2, 24),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_more_distinct_rows_than_the_budget(
        self, g, s, capped, dipped, seed
    ):
        """Two thresholds a probe do not fit: one threshold per probe,
        which is a binary search."""
        rng = np.random.default_rng(seed)
        classes, member, total, caps = class_instance(
            rng, g, s, g + 3, capped, dipped
        )
        # a per-row offset off the 1/64 grid keeps all g rows distinct
        classes = classes + np.arange(g)[:, None] / 2**16
        assert len(lbap._distinct_rows(classes)[0]) == g
        assert _LANES // g == 1
        assert_both_forms_match(classes, member, total, caps)


def fleet_shape(distinct_rows, n=512, s=1_100, seed=25):
    """Affine class rows (intercept + slope per shard), as a cohort of a
    columnar fleet has: ``(classes, row_of)``."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, s + 1)
    classes = (
        rng.uniform(0.5, 3.0, (distinct_rows, 1))
        + rng.uniform(0.05, 1.0, (distinct_rows, 1)) * k
    )
    return classes, np.arange(n) % distinct_rows


class TestProbeCount:
    """Host-independent pins of the search's width: how many probes one
    solve takes, and how many calls (Python and C) it makes."""

    @staticmethod
    def probes(monkeypatch, *args):
        """Thresholds per ``_counts_at`` call of one ``fed_lbap(*args)``."""
        calls = []
        kernel = lbap._counts_at

        def counted(rows, thresholds):
            calls.append(len(thresholds))
            return kernel(rows, thresholds)

        with monkeypatch.context() as patch:
            patch.setattr(lbap, "_counts_at", counted)
            fed_lbap(*args)
        return calls

    @pytest.mark.parametrize("zero_caps", [0, 16])
    def test_a_four_class_cohort_takes_two_probes(self, monkeypatch, zero_caps):
        classes, row_of = fleet_shape(4)
        s = classes.shape[1]
        caps = np.full(len(row_of), s)
        caps[:zero_caps] = 0
        calls = self.probes(monkeypatch, classes, s, 500, caps, row_of)
        # the binary search took 13 (14 with the zero caps)
        assert len(calls) <= 3, calls
        assert 4 * max(calls) <= _LANES

    def test_distinct_rows_take_no_more_probes_than_bisection(
        self, monkeypatch
    ):
        classes, row_of = fleet_shape(512)
        s = classes.shape[1]
        calls = self.probes(monkeypatch, classes[row_of], s, 500)
        # halving the distinct values down to one, then a probe at c*
        bisection = math.ceil(math.log2(len(np.unique(classes)))) + 1
        assert len(calls) <= bisection, (calls, bisection)
        assert 512 * max(calls) <= _LANES

    def test_call_count_at_the_fleet_shape(self):
        classes, row_of = fleet_shape(4)
        s = classes.shape[1]
        # numpy imports numpy.ma on the first np.unique of a process
        fed_lbap(classes[:2, :2], 1)
        calls = equivalence.TestNoPerUserPythonLoop.count_calls(
            lambda: fed_lbap(classes, s, 500, None, row_of)
        )
        # 574 with one narrow probe per threshold
        assert calls < 350, calls
