"""An unmetered client row through the one fold.

Async, gossip and device-less runs narrate ``ClientFinished`` with
``energy_j=None`` and ``battery_soc=None``. The recorder and the span
builder fold a row as its one-row batch, so the batch handlers are the
ones that must leave those ``None`` s out: no span arg, no Joules, an
unmetered ledger row — live off the bus and replayed from the row's
JSONL lines alike.
"""

import json

from repro.engine.events import (
    ClientDispatched,
    ClientFinished,
    ClientsFinished,
    RoundCompleted,
)
from repro.obs import ObsRecorder, render_prometheus, render_trace_json

ROWS = (
    ClientDispatched(round_idx=1, client_id=7, n_samples=120, time_s=0.0),
    ClientFinished(
        round_idx=1,
        client_id=7,
        compute_s=2.5,
        comm_s=0.5,
        total_s=3.0,
        time_s=3.0,
        energy_j=None,
        battery_soc=None,
    ),
    RoundCompleted(
        round_idx=1,
        makespan_s=3.0,
        mean_time_s=3.0,
        participant_count=1,
        accuracy=None,
        time_s=3.0,
    ),
)


def folded(live: bool) -> ObsRecorder:
    recorder = ObsRecorder(trace=True)
    for row in ROWS:
        if live:
            recorder(row)
        else:
            recorder.add_dict(json.loads(row.to_jsonl()))
    return recorder


def outputs(recorder: ObsRecorder):
    return (
        render_prometheus(recorder.metrics),
        render_trace_json(recorder.finish_spans()),
    )


def test_an_unmetered_finish_leaves_no_joules_and_no_soc():
    for live in (True, False):
        recorder = folded(live)
        (run,) = recorder.finish_spans()
        client = next(s for s in run.walk() if s.category == "client")
        assert client.attrs == {
            "client": 7,
            "n_samples": 120,
            "compute_s": 2.5,
            "comm_s": 0.5,
        }
        (row,) = recorder.energy.by_client()
        assert not row.metered and row.energy_j == 0.0
        assert row.last_soc is None and row.rounds == 1
        assert recorder.energy.round_energy == [(1, 0.0)]
        assert recorder.rounds[-1].energy_j == 0.0


def test_live_and_replay_render_alike():
    assert outputs(folded(live=True)) == outputs(folded(live=False))


def test_the_one_row_batch_of_an_unmetered_row_writes_the_rows_line():
    (finished,) = (r for r in ROWS if isinstance(r, ClientFinished))
    batch = ClientsFinished.of(finished)
    assert batch.rows() == [finished]
    assert batch.to_jsonl() == finished.to_jsonl()
