"""What the fold keeps of a narrated client: packed numbers, not objects.

A whole-finish round leaves its client spans as int64/float64 columns in
the span builder and its client times as float64 doubles in the
histograms, so no frozen batch outlives the emitter that dropped it. The
histograms' packed storage takes real numbers only and leaves the same
bits whatever sequence the values arrive in.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.engine.events import ClientsDispatched, RoundCompleted
from repro.obs.metrics import Histogram, MetricSpec

from .test_columns import _both_ways
from .test_span_blocks import _finished


def _whole_finish_rounds(rounds=5, cohort=24):
    """Each round a dispatch batch finished whole, then its barrier."""
    t = 0.0
    for r in range(1, rounds + 1):
        ids = tuple(range(r * 100, r * 100 + cohort))
        yield ClientsDispatched(r, ids, (500,) * cohort, t)
        finish_s = [t + 1.0 + i / cohort for i in range(cohort)]
        yield _finished(r, ids, finish_s)
        yield RoundCompleted(r, 2.0, 1.5, cohort, None, t + 2.0)
        t += 2.0


def test_a_whole_finish_keeps_no_batch_alive():
    held = []

    def emitted():
        for item in _whole_finish_rounds():
            held.append(weakref.ref(item))
            yield item

    columns, rows = _both_ways(emitted())
    gc.collect()
    assert len(held) == 15
    assert [ref for ref in held if ref() is not None] == []
    # and the packed blocks still make the rows' trace
    assert columns.outputs() == rows.outputs()


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**80])
def test_a_number_beyond_int64_still_traces(big):
    """A hand-made capture may name any integer: such a column is kept
    as its numbers instead of packed, batch and rows alike."""
    stream = [
        ClientsDispatched(1, (big, 3), (10, big), 0.0),
        _finished(1, (big, 3), (3.0, 4.0)),
        ClientsDispatched(2, (4, big), (10, 20), 5.0),
        _finished(2, (big,), (6.0,)),
        RoundCompleted(2, 2.0, 1.5, 1, None, 7.0),
    ]
    columns, rows = _both_ways(stream)
    assert columns.outputs() == rows.outputs()
    assert f'"client": {big}' in columns.outputs()["trace"]


_SPEC = MetricSpec(
    name="t_packed_seconds", kind="histogram", help="h", labels=("who",),
    buckets=(0.0, 1.0, 2.5),
)


def _bits(hist):
    return [
        (labels, [v.hex() for v in series.observations])
        for labels, series in hist.series()
    ]


class TestHistogramStorage:
    @pytest.mark.parametrize("bad", [None, "1.0"])
    def test_a_value_that_is_not_a_number_raises_at_the_call(self, bad):
        hist = Histogram(_SPEC)
        with pytest.raises(TypeError):
            hist.observe(bad, who="a")
        with pytest.raises(TypeError):
            hist.observe_each((1.0, bad), who="a")
        # nothing was kept: no series, not even an empty one
        assert list(hist.series()) == []
        hist.observe(2.0, who="a")
        with pytest.raises(TypeError):
            hist.observe(bad, who="a")
        assert _bits(hist) == [(("a",), [(2.0).hex()])]

    def test_each_form_of_column_leaves_the_bits_of_observe(self):
        values = [0.1, -0.0, float("nan"), float("inf"), 5e-324, 2.5, 7]
        one = Histogram(_SPEC)
        for v in values:
            one.observe(v, who="a")
        for column in (tuple(values), list(values), np.array(values)):
            bulk = Histogram(_SPEC)
            bulk.observe_each(column, who="a")
            assert _bits(bulk) == _bits(one)
            (_, series), = bulk.series()
            assert series.bucket_counts == [1, 3, 4]
            assert series.total.hex() == one.sum(who="a").hex()

    @pytest.mark.parametrize("empty", [(), [], np.array([])])
    def test_an_empty_column_creates_no_series(self, empty):
        hist = Histogram(_SPEC)
        hist.observe_each(empty, who="a")
        assert list(hist.series()) == []
        assert hist.count(who="a") == 0
