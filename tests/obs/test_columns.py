"""Column batches: a batch is its rows, to every consumer.

``ClientsDispatched`` / ``ClientsFinished`` are *defined* as their
``rows()``. The licence for the bulk paths behind them (the sink's
template writer, the recorder's column handlers, the histograms'
``observe_each``, the span builder's loops) is this differential: a
recorder + sink fed ``bus.emit(batch)`` and a recorder + sink fed the
same rows through plain listeners must end byte-equal — including for
the floats that separate ``repr`` from other spellings and a
left-to-right sum from a compensated or pairwise one.
"""

import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.events import (
    EVENT_TYPES,
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    ClientsDispatched,
    ClientsFinished,
    EngineEvent,
    EventBus,
    EventColumns,
    RoundCompleted,
)
from repro.engine.telemetry import TELEMETRY_SCHEMA_VERSION, JsonlSink
from repro.obs import ObsRecorder, render_prometheus, render_trace_json
from repro.obs.metrics import Counter, Histogram, MetricSpec

from ..engine.conftest import events_of

NAN, INF = float("nan"), float("inf")

#: floats whose spelling or summation order is easy to get wrong
_AWKWARD = [
    -0.0, 0.0, 5e-324, 1e22, 1e-7, 0.1, 0.2, 0.3, 1e16, 1.0, 2.5, 1e308,
]

#: cells a counter takes (it only goes up; NaN is not negative)
_UP = st.sampled_from(_AWKWARD + [NAN, INF]) | st.floats(0.0, 1e4)
#: cells a gauge, a histogram or a timestamp takes
_ANY = st.sampled_from(_AWKWARD + [NAN, INF, -INF, -3.5]) | st.floats(
    -1e4, 1e4
)
#: few ids and rounds, so batches meet each other and the row events
_ID = st.integers(0, 4)
_ROUND = st.integers(1, 3)


@st.composite
def dispatched_batches(draw, min_size=0):
    ids = draw(st.lists(_ID, min_size=min_size, max_size=6))
    return ClientsDispatched(
        round_idx=draw(_ROUND),
        client_ids=tuple(ids),
        n_samples=tuple(draw(st.integers(0, 5000)) for _ in ids),
        time_s=draw(_ANY),
    )


@st.composite
def finished_batches(draw, min_size=0):
    ids = draw(st.lists(_ID, min_size=min_size, max_size=6))

    def column(cells):
        return tuple(draw(cells) for _ in ids)

    return ClientsFinished(
        round_idx=draw(_ROUND),
        client_ids=tuple(ids),
        compute_s=column(_ANY),
        comm_s=column(_ANY),
        total_s=column(_UP),
        finish_s=column(_ANY),
        energy_j=column(_UP),
        battery_soc=column(_ANY),
    )


_BATCH = dispatched_batches() | finished_batches()

#: row events around the batches: what closes rounds, drops clients,
#: and everything else the taxonomy holds
_ROW = st.one_of(
    [
        events_of(
            cls,
            ints=st.integers(0, 4),
            floats=st.floats(0.0, 1e4),
            texts=st.sampled_from(["olar", "fed avg", ""]),
        )
        for cls in EVENT_TYPES.values()
    ]
)


def _lines(rows):
    return "".join(json.dumps(row.to_dict()) + "\n" for row in rows)


def _finished(round_idx, ids, total_s, **columns):
    n = len(ids)
    base = dict(
        compute_s=(1.0,) * n, comm_s=(0.5,) * n, finish_s=tuple(total_s),
        energy_j=(2.0,) * n, battery_soc=(0.9,) * n,
    )
    base.update(columns)
    return ClientsFinished(
        round_idx, tuple(ids), total_s=tuple(total_s), **base
    )


def _completed(round_idx, time_s=100.0):
    return RoundCompleted(round_idx, 3.0, 3.0, 1, None, time_s)


# -- what a batch is ------------------------------------------------------


class TestBatchIsItsRows:
    def test_rows_are_the_row_events_in_order(self):
        batch = ClientsDispatched(4, (7, 2, 7), (500, 1000, 0), 12.5)
        assert batch.rows() == [
            ClientDispatched(4, 7, 500, 12.5),
            ClientDispatched(4, 2, 1000, 12.5),
            ClientDispatched(4, 7, 0, 12.5),
        ]
        assert len(batch) == 3

    def test_finish_s_is_each_rows_time_s(self):
        batch = ClientsFinished(
            2, (5, 6), (1.0, 2.0), (0.5, 0.25), (1.5, 2.25), (11.5, 12.25),
            (3.0, 4.0), (0.9, 0.8),
        )
        assert batch.rows() == [
            ClientFinished(2, 5, 1.0, 0.5, 1.5, 11.5, 3.0, 0.9),
            ClientFinished(2, 6, 2.0, 0.25, 2.25, 12.25, 4.0, 0.8),
        ]

    def test_a_batch_is_not_an_event_and_not_on_the_wire(self):
        for cls in (ClientsDispatched, ClientsFinished):
            assert issubclass(cls, EventColumns)
            assert not issubclass(cls, EngineEvent)
            assert not hasattr(cls, "kind")
            assert cls.row_type in EVENT_TYPES.values()
        assert len(EVENT_TYPES) == 9
        assert TELEMETRY_SCHEMA_VERSION == 4

    def test_unequal_columns_are_refused(self):
        with pytest.raises(ValueError, match="equally long"):
            ClientsDispatched(1, (1, 2), (500,), 0.0)
        with pytest.raises(ValueError, match="equally long"):
            _finished(1, (1, 2), (3.0, 4.0), energy_j=(1.0,))

    @settings(max_examples=200, deadline=None)
    @given(batch=_BATCH)
    @example(batch=ClientsDispatched(1, (3,), (500,), INF))
    @example(batch=_finished(1, (0, 1), (1e22, 5e-324), comm_s=(-0.0, 1e-7)))
    @example(batch=_finished(1, (0, 1), (NAN, 1.0), battery_soc=(-INF, INF)))
    def test_to_jsonl_is_the_rows_lines_byte_for_byte(self, batch):
        assert batch.to_jsonl() == _lines(batch.rows())


# -- who receives which ---------------------------------------------------


class _Columns:
    """A listener that opts in, keeping what it was called with."""

    accepts_columns = True

    def __init__(self):
        self.calls = []

    def __call__(self, event):
        self.calls.append(event)


def _wrapped(listener):
    """What perfbench's tracer does to every listener it subscribes."""

    def traced(event):
        listener(event)

    traced.__wrapped__ = listener
    return traced


BATCH = ClientsDispatched(1, (4, 9, 4), (100, 200, 300), 5.0)


class TestBusDelivery:
    def test_a_plain_listener_receives_the_rows_in_order(self):
        bus, seen = EventBus(), []
        bus.subscribe(seen.append)
        bus.emit(BATCH)
        assert seen == BATCH.rows()

    def test_plain_listeners_share_one_rows_list(self):
        bus, first, second = EventBus(), [], []
        bus.subscribe(first.append)
        bus.subscribe(lambda event: second.append(event))
        bus.emit(BATCH)
        assert len(first) == 3
        assert all(a is b for a, b in zip(first, second))

    def test_an_opted_in_listener_is_called_once_with_the_batch(self):
        bus, columns, rows = EventBus(), _Columns(), []
        bus.subscribe(rows.append)
        bus.subscribe(columns)
        bus.emit(BATCH)
        assert columns.calls == [BATCH] and columns.calls[0] is BATCH
        assert rows == BATCH.rows()

    def test_opting_in_is_read_through_wrapped(self):
        bus, columns = EventBus(), _Columns()
        bus.subscribe(_wrapped(_wrapped(columns)))
        bus.emit(BATCH)
        assert columns.calls == [BATCH]

    def test_a_wrapped_plain_listener_still_gets_rows(self):
        bus, seen = EventBus(), []
        bus.subscribe(_wrapped(seen.append))
        bus.emit(BATCH)
        assert seen == BATCH.rows()

    def test_global_listeners_follow_the_same_rule(self):
        columns, rows = _Columns(), []
        EventBus.add_global_listener(columns)
        EventBus.add_global_listener(rows.append)
        try:
            EventBus().emit(BATCH)
        finally:
            EventBus.remove_global_listener(columns)
            EventBus.remove_global_listener(rows.append)
        assert columns.calls == [BATCH]
        assert rows == BATCH.rows()

    def test_row_events_reach_everyone_as_they_are(self):
        bus, columns, rows = EventBus(), _Columns(), []
        bus.subscribe(columns)
        bus.subscribe(rows.append)
        event = _completed(1)
        bus.emit(event)
        assert columns.calls == [event] and rows == [event]

    def test_an_empty_batch_reaches_no_plain_listener(self):
        bus, seen = EventBus(), []
        bus.subscribe(seen.append)
        bus.emit(ClientsDispatched(1, (), (), 0.0))
        assert seen == []

    def test_the_recorder_and_the_sink_opt_in(self):
        assert ObsRecorder.accepts_columns is True
        assert JsonlSink.accepts_columns is True


# -- the licence ----------------------------------------------------------


class _Pair:
    """A recorder and a sink on one bus."""

    def __init__(self, plain):
        self.bus = EventBus()
        self.recorder = ObsRecorder(run_name="columns")
        self.stream = io.StringIO()
        self.sink = JsonlSink(self.stream)
        if plain:
            # a bare function opts into nothing: rows only
            self.bus.subscribe(lambda event: self.recorder(event))
            self.bus.subscribe(lambda event: self.sink(event))
        else:
            self.bus.subscribe(self.recorder)
            self.bus.subscribe(self.sink)

    def outputs(self):
        return {
            "sink": self.stream.getvalue(),
            "sunk": self.sink.n_events,
            **_recorder_outputs(self.recorder),
        }


def _recorder_outputs(recorder):
    return {
        "prom": render_prometheus(recorder.metrics),
        "trace": render_trace_json(recorder.finish_spans()),
        # repr, not ==: NaN cells must compare equal, -0.0 and 0.0
        # must not
        "ledger": repr(recorder.energy),
        "rounds": repr(
            [
                tuple(getattr(r, name) for name in r.__slots__)
                for r in recorder.rounds
            ]
        ),
        "n_events": recorder.n_events,
        "counts": recorder.event_counts(),
    }


def _both_ways(stream):
    columns, rows = _Pair(plain=False), _Pair(plain=True)
    for item in stream:
        columns.bus.emit(item)
        rows.bus.emit(item)
    return columns, rows


_STREAM = st.lists(_BATCH | _ROW, max_size=12)


class TestColumnsEqualRows:
    @settings(max_examples=300, deadline=None)
    @given(stream=_STREAM)
    @example(  # ids repeated across rounds, the first never finished
        stream=[
            ClientsDispatched(1, (3, 4), (500, 500), 0.0),
            ClientsDispatched(2, (3, 4), (500, 500), 10.0),
            _finished(2, (3, 4), (3.0, 2.0)),
            _completed(2),
        ]
    )
    @example(  # ids never dispatched: a trimmed capture
        stream=[_finished(2, (7, 8), (3.0, 9.0)), _completed(2)]
    )
    @example(  # a batch of one
        stream=[
            ClientsDispatched(1, (0,), (10,), 0.0),
            _finished(1, (0,), (3.0,)),
            _completed(1),
        ]
    )
    @example(  # two batches in one round; the straggler is in the first
        stream=[
            _finished(1, (0, 1), (9.0, 2.0)),
            _finished(1, (2, 3), (4.0, 9.0)),
            _completed(1),
        ]
    )
    @example(  # straggler ties: the first of equal maxima
        stream=[_finished(1, (5, 6, 7), (4.0, 9.0, 9.0)), _completed(1)]
    )
    @example(  # a NaN ahead of the maximum hides it, as in the rows' scan
        stream=[_finished(1, (5, 6, 7), (NAN, 9.0, 1.0)), _completed(1)]
    )
    @example(  # _sum must add left to right: 0.1+0.2+0.3 is not 0.3+0.2+0.1
        stream=[
            _finished(
                1, (0, 1, 2, 3), (0.1, 0.2, 0.3, 1e16),
                energy_j=(1e16, 1.0, -0.0, 1.0),
                compute_s=(1e16, 1.0, -1e16, 1.0),
            ),
            _completed(1),
        ]
    )
    @example(  # a drop (always a row) between the batches
        stream=[
            ClientsDispatched(1, (0, 1), (10, 10), 0.0),
            _finished(1, (0,), (3.0,)),
            ClientDropped(1, 1, 4.0, 4.0),
            _completed(1),
        ]
    )
    def test_emitting_a_batch_equals_emitting_its_rows(self, stream):
        columns, rows = _both_ways(stream)
        assert columns.outputs() == rows.outputs()

    @settings(max_examples=100, deadline=None)
    @given(stream=_STREAM)
    def test_replaying_the_batch_written_capture_equals_live(
        self, stream, tmp_path_factory
    ):
        columns, _ = _both_ways(stream)
        path = tmp_path_factory.mktemp("capture") / "columns.jsonl"
        path.write_text(columns.stream.getvalue())
        replayed = ObsRecorder.from_jsonl(path, run_name="columns")
        assert _recorder_outputs(replayed) == _recorder_outputs(
            columns.recorder
        )

    def test_an_empty_batch_leaves_no_series_behind(self):
        columns, rows = _both_ways(
            [ClientsDispatched(1, (), (), 5.0), _finished(1, (), ())]
        )
        assert columns.outputs() == rows.outputs()
        assert columns.recorder.event_counts() == {}

    def test_the_capture_holds_rows_only(self):
        columns, _ = _both_ways(
            [
                ClientsDispatched(1, (0, 1), (10, 10), 0.0),
                _finished(1, (0, 1), (3.0, 4.0)),
                _completed(1),
            ]
        )
        kinds = [
            json.loads(line)["event"]
            for line in columns.stream.getvalue().splitlines()
        ]
        assert kinds == [
            "telemetry_meta",
            "client_dispatched", "client_dispatched",
            "client_finished", "client_finished",
            "round_completed",
        ]
        assert columns.sink.n_events == columns.recorder.n_events == 5

    def test_the_sink_flushes_once_per_call(self):
        class CountingStream(io.StringIO):
            flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        stream = CountingStream()
        sink = JsonlSink(stream)
        header = stream.flushes
        sink(ClientsDispatched(1, (0, 1, 2), (10, 10, 10), 0.0))
        sink(_completed(1))
        assert stream.flushes - header == 2
        assert sink.n_events == 4

    def test_a_batch_of_a_kind_without_a_column_handler_folds_its_rows(
        self, monkeypatch
    ):
        batch = _finished(1, (0, 1), (3.0, 4.0))
        monkeypatch.setattr(ObsRecorder, "_COLUMN_HANDLERS", {})
        by_rows = ObsRecorder()
        by_rows(batch)
        monkeypatch.undo()
        by_columns = ObsRecorder()
        by_columns(batch)
        assert _recorder_outputs(by_rows) == _recorder_outputs(by_columns)


# -- the bulk instrument forms --------------------------------------------


def _series(metric):
    """An instrument's exported state, floats as bits."""
    out = []
    for labels, value in metric.series():
        if isinstance(metric, Histogram):
            out.append(
                (
                    labels,
                    tuple(value.bucket_counts),
                    value.total.hex(),
                    value.count,
                    [float(v).hex() for v in value.observations],
                )
            )
        else:
            out.append((labels, float(value).hex()))
    return out


_HIST = MetricSpec(
    name="t_seconds", kind="histogram", help="h", labels=("who",),
    buckets=(0.0, 1.0, 2.5, 1e16),
)
_COUNT = MetricSpec(
    name="t_total", kind="counter", help="c", labels=("client",)
)


class TestEachForms:
    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(_ANY, max_size=3),
        values=st.lists(_ANY, max_size=8),
    )
    @example(before=[], values=[0.1, 0.2, 0.3])
    @example(before=[1e16], values=[1.0, -1e16, 1.0])
    @example(before=[], values=[NAN, INF, -INF, 0.0, -0.0, 1.0, 2.5, 1e16])
    def test_observe_each_is_observe_for_each(self, before, values):
        one, bulk = Histogram(_HIST), Histogram(_HIST)
        for v in before:
            one.observe(v, who="a")
            bulk.observe(v, who="a")
        for v in values:
            one.observe(v, who="a")
        bulk.observe_each(tuple(values), who="a")
        assert _series(bulk) == _series(one)

    def test_bucket_edges(self):
        hist = Histogram(_HIST)
        hist.observe_each(
            (NAN, INF, -INF, 0.0, -0.0, 1.0, 1.5, 1e16, 2e16), who="a"
        )
        (_, series), = hist.series()
        # cumulative: <=0.0, <=1.0, <=2.5, <=1e16; NaN in none, +inf
        # and 2e16 only past the last bound
        assert series.bucket_counts == [3, 4, 5, 6]
        assert series.count == 9


class TestRowPathFixes:
    def test_label_mismatch_keeps_its_words(self):
        counter = Counter(_COUNT)
        for labels in ({}, {"who": 1}, {"client": 1, "who": 2}):
            with pytest.raises(ValueError) as err:
                counter.inc(**labels)
            assert str(err.value) == (
                "metric 't_total' takes labels ('client',), "
                f"got {tuple(sorted(labels))}"
            )

    def test_observe_buckets_are_cumulative_from_the_first_bound(self):
        hist = Histogram(_HIST)
        for v, expected in [
            (-INF, [1, 1, 1, 1]),
            (1.0, [1, 2, 2, 2]),
            (NAN, [1, 2, 2, 2]),
            (INF, [1, 2, 2, 2]),
            (1e16, [1, 2, 2, 3]),
        ]:
            hist.observe(v, who="a")
            (_, series), = hist.series()
            assert series.bucket_counts == expected
        assert math.isnan(hist.sum(who="a"))
        assert hist.count(who="a") == 5


def test_a_nan_leading_a_later_batch_does_not_hide_its_straggler():
    """The round's second batch opens with NaN: the rows' scan still
    moves from the first batch's 1.0 to the 2.0 behind the NaN, so the
    batch fold must start from the straggler so far."""
    stream = [
        _finished(1, (0,), (1.0,)),
        _finished(1, (1, 2, 3), (NAN, 2.0, 1.5)),
        _completed(1),
    ]
    columns, rows = _both_ways(stream)
    assert columns.outputs() == rows.outputs()
    (summary,) = columns.recorder.rounds
    assert (summary.straggler_id, summary.straggler_s) == (2, 2.0)
