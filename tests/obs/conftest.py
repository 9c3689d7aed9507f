"""Shared fixtures: a hand-built, fully deterministic event stream.

The synthetic stream exercises every span/metric path — a scheduler
invocation, a finished client, a dropped straggler, an aggregation and
two completed rounds — with round numbers chosen to survive replay
byte-for-byte (golden exporter files are rendered from exactly this).
"""

import json

import pytest

from repro.engine.events import (
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    ModelAggregated,
    RoundCompleted,
    ScheduleComputed,
)

SYNTHETIC_EVENTS = (
    ScheduleComputed(
        round_idx=1,
        scheduler="olar",
        shard_counts=(2, 1),
        shard_size=100,
        predicted_makespan_s=10.0,
        predicted_energy_j=120.0,
        time_s=0.0,
    ),
    ClientDispatched(round_idx=1, client_id=0, n_samples=200, time_s=0.0),
    ClientDispatched(round_idx=1, client_id=1, n_samples=100, time_s=0.0),
    ClientFinished(
        round_idx=1,
        client_id=0,
        compute_s=3.0,
        comm_s=1.0,
        total_s=4.0,
        time_s=4.0,
        energy_j=30.0,
        battery_soc=0.95,
    ),
    ClientDropped(round_idx=1, client_id=1, total_s=8.0, time_s=8.0),
    ModelAggregated(
        round_idx=1,
        participants=(0,),
        strategy="sync_fedavg",
        version=1,
        time_s=9.0,
    ),
    RoundCompleted(
        round_idx=1,
        makespan_s=9.0,
        mean_time_s=4.0,
        participant_count=1,
        accuracy=0.5,
        time_s=9.0,
    ),
    ClientDispatched(round_idx=2, client_id=0, n_samples=200, time_s=9.0),
    ClientDispatched(round_idx=2, client_id=1, n_samples=100, time_s=9.0),
    ClientFinished(
        round_idx=2,
        client_id=0,
        compute_s=2.0,
        comm_s=1.0,
        total_s=3.0,
        time_s=12.0,
        energy_j=20.0,
        battery_soc=0.9,
    ),
    ClientFinished(
        round_idx=2,
        client_id=1,
        compute_s=5.0,
        comm_s=1.0,
        total_s=6.0,
        time_s=15.0,
        energy_j=55.0,
        battery_soc=0.8,
    ),
    ModelAggregated(
        round_idx=2,
        participants=(0, 1),
        strategy="sync_fedavg",
        version=2,
        time_s=16.0,
    ),
    RoundCompleted(
        round_idx=2,
        makespan_s=7.0,
        mean_time_s=4.5,
        participant_count=2,
        accuracy=0.75,
        time_s=16.0,
    ),
)


@pytest.fixture
def synthetic_events():
    """The typed synthetic stream."""
    return SYNTHETIC_EVENTS


@pytest.fixture
def synthetic_dicts():
    """The same stream as JSONL-style dicts."""
    return [e.to_dict() for e in SYNTHETIC_EVENTS]


@pytest.fixture
def synthetic_jsonl(tmp_path):
    """The same stream written as a telemetry JSONL file (with the
    schema header a real :class:`JsonlSink` would emit)."""
    path = tmp_path / "synthetic.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(
            json.dumps({"event": "telemetry_meta", "schema_version": 2})
            + "\n"
        )
        for event in SYNTHETIC_EVENTS:
            fh.write(json.dumps(event.to_dict()) + "\n")
    return path
