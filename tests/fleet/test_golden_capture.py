"""The absolute bytes of a narrated columnar capture.

The other fleet tests pin that two drivers agree with each other; this
one pins what a seeded :class:`~repro.fleet.FleetRunner` writes through
a :class:`~repro.engine.telemetry.JsonlSink`, byte for byte, against a
file generated on the commit *before* the round was narrated in column
batches (PR 23) — so the wire format of a narrated round cannot move
without this file moving.

Regenerate (only when the wire format is meant to change)::

    PYTHONPATH=src python -m tests.fleet.test_golden_capture
"""

import io
import json
from pathlib import Path

from repro.engine.events import ClientDispatched, EventBus
from repro.engine.telemetry import JsonlSink
from repro.fleet import FleetRunner, UniformSampler

from .conftest import toy_fleet

GOLDEN = Path(__file__).parent / "golden" / "narrated.jsonl"

#: the round in which a dispatched row dies before the barrier closes
KILL_ROUND = 2


def narrated_capture() -> str:
    """Three narrated rounds of a seeded runner (n = 64, cohort 8); the
    first row dispatched in round 2 is killed between dispatch and
    close, so the capture holds a ``client_dropped``."""
    fleet = toy_fleet(64, seed=23)
    bus = EventBus()
    stream = io.StringIO()
    bus.subscribe(JsonlSink(stream))
    killed = []

    def kill_first_dispatched(event):
        if (
            isinstance(event, ClientDispatched)
            and event.round_idx == KILL_ROUND
            and not killed
        ):
            killed.append(event.client_id)
            fleet.alive[event.client_id] = False

    bus.subscribe(kill_first_dispatched)
    FleetRunner(
        fleet,
        scheduler="proportional",
        sampler=UniformSampler(23),
        cohort_size=8,
        shard_size=100,
        aggregation_s=1.5,
        bus=bus,
    ).run(3)
    assert killed
    return stream.getvalue()


def test_narrated_capture_matches_the_golden_bytes():
    capture = narrated_capture()
    assert capture == GOLDEN.read_text()
    kinds = [json.loads(line)["event"] for line in capture.splitlines()]
    assert kinds.count("client_dropped") == 1
    assert kinds.count("round_completed") == 3
    # column batches never reach a capture: rows only
    assert not [k for k in kinds if k.startswith("clients_")]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(narrated_capture())
    print(f"wrote {GOLDEN}")
