"""Client spans held as dispatch blocks until ``finish()``.

:class:`~repro.obs.spans.SpanBuilder` keeps a dispatch batch's client
spans as the batch plus a close state per row and builds their
:class:`~repro.obs.spans.Span` objects only at ``finish()``. The
hypothesis streams of ``test_columns.py`` stop at a few rows per batch;
here a fleet-scale narrated run, with a serve-style round on its tail,
must leave the same trace as its capture replayed row by row, and the
fold must not build a client span before ``finish()``.
"""

import io
import json

import pytest

from repro.engine.events import (
    ClientDropped,
    ClientsDispatched,
    ClientsFinished,
    EventBus,
    ModelAggregated,
    RoundCompleted,
)
from repro.engine.telemetry import JsonlSink
from repro.fleet import FleetRunner, UniformSampler, synthetic_fleet
from repro.obs import ObsRecorder, render_trace_json
from repro.obs import spans as spans_module
from repro.obs.spans import SpanBuilder

from .test_columns import _both_ways


def _trace(recorder):
    """The recorder's trace with ``solve_ms`` (host time) nulled."""
    roots = recorder.finish_spans()
    for span in roots[0].walk():
        if "solve_ms" in span.attrs:
            span.attrs["solve_ms"] = None
    return render_trace_json(roots)


def _finished(round_idx, ids, finish_s):
    n = len(ids)
    return ClientsFinished(
        round_idx,
        tuple(ids),
        compute_s=tuple(0.5 * t for t in finish_s),
        comm_s=(0.25,) * n,
        total_s=tuple(finish_s),
        finish_s=tuple(finish_s),
        energy_j=tuple(3.0 + i for i in range(n)),
        battery_soc=(0.5,) * n,
    )


def _serve_tail(ids, t0):
    """A k-of-n round: a finish that is a subsequence of its dispatch
    and drops for the rest; then a client dispatched again before it
    finished, and a dispatched round no barrier closes."""
    a, b, c, d, e, f, g, h = ids
    return [
        ClientsDispatched(900, (a, b, c, d, e), (100,) * 5, t0),
        _finished(900, (a, c, e), (t0 + 4.0, t0 + 2.0, t0 + 7.5)),
        ClientDropped(900, b, 9.0, t0 + 9.0),
        ClientDropped(900, d, 9.0, t0 + 9.0),
        RoundCompleted(900, 9.0, 6.0, 3, None, t0 + 9.0),
        ClientsDispatched(901, (f, g, h), (200,) * 3, t0 + 10.0),
        ClientsDispatched(902, (g, a), (300,) * 2, t0 + 11.0),
        _finished(902, (g, a), (t0 + 13.0, t0 + 12.0)),
        RoundCompleted(902, 2.0, 1.5, 2, 0.5, t0 + 13.0),
    ]


def test_fleet_batches_leave_the_trace_of_their_rows_replayed(tmp_path):
    fleet = synthetic_fleet(2_000, seed=11)
    bus = EventBus()
    live = ObsRecorder(run_name="blocks")
    stream = io.StringIO()
    bus.subscribe(live)  # folds the batches
    bus.subscribe(JsonlSink(stream))  # writes their rows
    runner = FleetRunner(
        fleet,
        scheduler="proportional",
        sampler=UniformSampler(11),
        cohort_size=128,
        bus=bus,
    )
    runner.run(30)
    for item in _serve_tail(range(40, 48), runner.clock_s + 1.0):
        bus.emit(item)

    path = tmp_path / "blocks.jsonl"
    path.write_text(stream.getvalue())
    replayed = ObsRecorder.from_jsonl(path, run_name="blocks")

    trace = _trace(live)
    assert trace == _trace(replayed)
    events = json.loads(trace)["traceEvents"]
    clients = [e for e in events if e.get("cat") == "client"]
    assert len(clients) > 30 * 64
    marks = [
        (e["name"], mark)
        for e in clients
        for mark in ("dropped", "unclosed")
        if e["args"].get(mark)
    ]
    assert marks == [
        ("client 41", "dropped"),
        ("client 43", "dropped"),
        ("client 45", "unclosed"),  # dispatched again in round 902
        ("client 46", "unclosed"),  # round 901 left open at finish()
        ("client 47", "unclosed"),
    ]


def test_no_client_span_exists_before_finish(monkeypatch):
    built = []

    class CountingSpan(spans_module.Span):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.category)

    monkeypatch.setattr(spans_module, "Span", CountingSpan)
    rounds, cohort = 50, 256
    builder = SpanBuilder()
    t = 0.0
    for r in range(1, rounds + 1):
        ids = tuple(range(r, r + cohort))
        builder.fold_columns(ClientsDispatched(r, ids, (500,) * cohort, t))
        builder.fold_columns(
            _finished(r, ids, [t + 1.0 + i / cohort for i in range(cohort)])
        )
        builder.fold(ModelAggregated(r, ids, "sync_fedavg", r, t + 2.0))
        builder.fold(RoundCompleted(r, 2.0, 1.5, cohort, None, t + 2.0))
        t += 2.0

    # the run, a span per round, an instant per round: O(rounds)
    assert len(built) == 1 + 2 * rounds
    assert "client" not in built

    (run,) = builder.finish()
    held = sum(1 for _ in run.walk())
    assert held == 1 + rounds + rounds + rounds * cohort
    assert built.count("client") == rounds * cohort
    # a second finish() builds nothing and returns the same roots
    assert builder.finish()[0] is run
    assert len(built) == held


@pytest.mark.parametrize(
    "stream",
    [
        [  # a row dropped before a finish naming the whole dispatch
            ClientsDispatched(1, (0, 1), (10, 10), 0.0),
            ClientDropped(1, 1, 2.0, 2.0),
            _finished(1, (0, 1), (3.0, 4.0)),
        ],
        [  # a row displaced by a later dispatch before the finish
            ClientsDispatched(1, (0, 1), (10, 10), 0.0),
            ClientsDispatched(2, (1,), (10,), 1.0),
            _finished(1, (0, 1), (3.0, 4.0)),
        ],
        [  # the same finish twice: the second finds nothing open
            ClientsDispatched(1, (0, 1), (10, 10), 0.0),
            _finished(1, (0, 1), (3.0, 4.0)),
            _finished(1, (0, 1), (5.0, 6.0)),
        ],
        [  # a dispatch repeating an id, finished as it was dispatched
            ClientsDispatched(1, (0, 0), (10, 20), 0.0),
            _finished(1, (0, 0), (3.0, 4.0)),
        ],
        [  # the barrier closed the rows before their finish arrived
            ClientsDispatched(1, (0, 1), (10, 10), 0.0),
            RoundCompleted(1, 2.0, 2.0, 0, None, 2.0),
            _finished(1, (0, 1), (3.0, 4.0)),
        ],
    ],
)
def test_a_finish_of_a_part_closed_dispatch_closes_row_by_row(stream):
    columns, rows = _both_ways(stream)
    assert columns.outputs() == rows.outputs()
