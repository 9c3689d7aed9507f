"""Telemetry-layer tests: JSON-lines sink, the recorder as the one fold
over a live bus, global capture."""

import json

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.device.registry import make_device
from repro.engine.events import ClientDropped, EventBus, RoundCompleted
from repro.engine.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    JsonlSink,
    read_jsonl,
    read_jsonl_meta,
)
from repro.federated.asynchronous import AsyncConfig, AsyncFederatedSimulation
from repro.federated.decentralized import (
    DecentralizedSimulation,
    make_topology,
)
from repro.federated.simulation import FederatedSimulation, SimulationConfig
from repro.models import logistic
from repro.obs import ObsRecorder, record_telemetry


def make_sync_sim(dataset, n_users=3, with_devices=True, **cfg_kw):
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n_users, rng)
    devices = None
    if with_devices:
        devices = [
            make_device("pixel2", jitter=0.0) for _ in range(n_users)
        ]
    model = logistic(input_shape=dataset.input_shape, seed=1)
    return FederatedSimulation(
        dataset, model, users, devices=devices,
        config=SimulationConfig(lr=0.05, **cfg_kw),
    )


class TestJsonlSink:
    def test_stream_is_parseable_and_matches_history(
        self, tiny_dataset, tmp_path
    ):
        """Acceptance: the JSON-lines file's per-round makespans equal
        the ConvergenceHistory's."""
        path = tmp_path / "telemetry.jsonl"
        sim = make_sync_sim(tiny_dataset)
        sink = JsonlSink(str(path))
        sim.events.subscribe(sink)
        history = sim.run(3, train=False)
        sink.close()

        events = read_jsonl(path)
        assert all("event" in e for e in events)
        jsonl_makespans = [
            e["makespan_s"]
            for e in events
            if e["event"] == "round_completed"
        ]
        assert jsonl_makespans == pytest.approx(history.makespans())
        assert len(jsonl_makespans) == 3

    def test_creates_missing_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "deeper" / "out.jsonl"
        with JsonlSink(str(path)) as sink:
            assert path.exists()
            assert sink.n_events == 0

    def test_every_line_is_json(self, tiny_dataset, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sim = make_sync_sim(tiny_dataset, with_devices=False)
        sink = JsonlSink(str(path))
        sim.events.subscribe(sink)
        sim.run_round()
        sink.close()
        with open(path) as fh:
            for line in fh:
                json.loads(line)
        assert sink.n_events > 0


class TestAggregator:
    def test_round_records_structure(self, tiny_dataset):
        sim = make_sync_sim(tiny_dataset, eval_every=1)
        rec = ObsRecorder(trace=False)
        sim.events.subscribe(rec)
        sim.run(2)
        assert len(rec.rounds) == 2
        first = rec.rounds[0]
        assert first.round_idx == 1
        assert first.participants == 3
        assert first.dropped == 0
        assert first.accuracy is not None
        clients = rec.energy.by_client()
        assert [c.client_id for c in clients] == [0, 1, 2]
        assert all(c.rounds == 2 and c.dropped == 0 for c in clients)

    def test_makespans_match_history(self, tiny_dataset):
        sim = make_sync_sim(tiny_dataset)
        rec = ObsRecorder(trace=False)
        sim.events.subscribe(rec)
        history = sim.run(2, train=False)
        assert [r.makespan_s for r in rec.rounds] == pytest.approx(
            history.makespans()
        )

    def test_counts_by_kind(self, tiny_dataset):
        sim = make_sync_sim(tiny_dataset, n_users=2)
        rec = ObsRecorder(trace=False)
        sim.events.subscribe(rec)
        sim.run(2)
        counts = rec.event_counts()
        assert counts["client_dispatched"] == 4
        assert counts["client_finished"] == 4
        assert counts["model_aggregated"] == 2
        assert counts["round_completed"] == 2
        assert rec.n_events == 12


class TestGlobalCapture:
    def test_record_telemetry_captures_internal_sims(
        self, tiny_dataset, tmp_path
    ):
        """Engines built inside the context are captured without any
        explicit subscription — the CLI's --telemetry path."""
        path = tmp_path / "captured.jsonl"
        with record_telemetry(str(path)) as rec:
            sim = make_sync_sim(tiny_dataset, n_users=2)
            sim.run(2, train=False)
        assert rec.event_counts()["round_completed"] == 2
        events = read_jsonl(path)
        assert [
            e["event"] for e in events
        ].count("round_completed") == 2

    def test_capture_stops_after_context(self, tiny_dataset):
        with record_telemetry() as rec:
            sim = make_sync_sim(tiny_dataset, n_users=2)
            sim.run_round(train=False)
        seen = rec.n_events
        assert seen > 0
        sim.run_round(train=False)
        assert rec.n_events == seen


class TestOtherModes:
    def test_async_emits_aggregations(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 2, rng)
        devices = [
            make_device("pixel2", jitter=0.0, seed=i) for i in range(2)
        ]
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = AsyncFederatedSimulation(
            tiny_dataset, model, users, devices,
            config=AsyncConfig(lr=0.05),
        )
        rec = ObsRecorder(trace=False)
        sim.events.subscribe(rec)
        updates = sim.run(horizon_s=60.0)
        counts = rec.event_counts()
        assert counts["model_aggregated"] == len(updates)
        assert counts["client_finished"] == len(updates)
        # every client pull is narrated, including unfinished ones
        assert counts["client_dispatched"] >= len(updates)

    def test_gossip_emits_rounds(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = DecentralizedSimulation(
            tiny_dataset, model, users, make_topology("ring", 3)
        )
        rec = ObsRecorder(trace=False)
        sim.events.subscribe(rec)
        sim.run(2)
        counts = rec.event_counts()
        assert counts["round_completed"] == 2
        assert counts["client_dispatched"] == 6
        assert [r.participants for r in rec.rounds] == [3, 3]


class TestDroppedWithoutFinish:
    """Regression: a ``client_dropped`` with no preceding
    ``client_finished`` must still yield a client row (the ledger keeps
    the drop; the drop's ``total_s`` lives on the event and its span)."""

    def test_dropped_only_client_gets_a_row(self):
        rec = ObsRecorder(trace=False)
        rec(ClientDropped(round_idx=1, client_id=5, total_s=9.0, time_s=9.0))
        rec(
            RoundCompleted(
                round_idx=1,
                makespan_s=9.0,
                mean_time_s=0.0,
                participant_count=0,
                accuracy=None,
                time_s=9.0,
            )
        )
        (record,) = rec.rounds
        assert record.dropped == 1
        assert record.participants == 0
        (row,) = rec.energy.by_client()
        assert row is rec.energy.clients[5]
        assert row.dropped == 1
        assert row.rounds == 0
        assert row.busy_s == 0


class TestSchemaHeaderAndCorruptLines:
    def test_sink_writes_schema_header(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(str(path)) as sink:
            assert sink.n_events == 0  # header is not an event
        (header,) = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert header == {
            "event": "telemetry_meta",
            "schema_version": TELEMETRY_SCHEMA_VERSION,
        }

    def test_read_jsonl_meta_extracts_header(self, tiny_dataset, tmp_path):
        path = tmp_path / "run.jsonl"
        sim = make_sync_sim(tiny_dataset, with_devices=False)
        with JsonlSink(str(path)) as sink:
            sim.events.subscribe(sink)
            sim.run_round(train=False)
        read = read_jsonl_meta(path)
        assert read.schema_version == TELEMETRY_SCHEMA_VERSION
        assert read.corrupt_lines == 0
        # the meta line is excluded from the event stream
        assert all(e["event"] != "telemetry_meta" for e in read.events)
        assert read.events == read_jsonl(path)

    def test_corrupt_trailing_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"event": "telemetry_meta", "schema_version": 2}\n'
            '{"event": "round_completed", "round_idx": 1, "time_s": 1.0}\n'
            '{"event": "round_comp'  # process killed mid-write
        )
        read = read_jsonl_meta(path)
        assert read.corrupt_lines == 1
        assert [e["event"] for e in read.events] == ["round_completed"]

    def test_non_dict_lines_count_as_corrupt(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('[1, 2, 3]\n"just a string"\n')
        read = read_jsonl_meta(path)
        assert read.corrupt_lines == 2
        assert read.events == []
        assert read.schema_version is None


class TestRecordTelemetryLifecycle:
    def test_listeners_removed_when_body_raises(self, tmp_path):
        """The context must deregister its global listeners (and close
        the sink) even when the run inside it fails."""
        path = tmp_path / "crash.jsonl"
        before = len(EventBus._global_listeners)
        with pytest.raises(RuntimeError, match="boom"):
            with record_telemetry(str(path)):
                assert len(EventBus._global_listeners) == before + 2
                raise RuntimeError("boom")
        assert len(EventBus._global_listeners) == before
        # the sink was flushed+closed: the header line is intact
        assert read_jsonl_meta(path).schema_version == (
            TELEMETRY_SCHEMA_VERSION
        )

    def test_nested_contexts_do_not_double_record(self, tiny_dataset):
        """Each recorder sees each event once, nesting or not."""
        with record_telemetry() as outer:
            with record_telemetry() as inner:
                sim = make_sync_sim(
                    tiny_dataset, n_users=2, with_devices=False
                )
                sim.run_round(train=False)
            inner_counts = inner.event_counts()
        outer_counts = outer.event_counts()
        assert inner_counts["round_completed"] == 1
        assert outer_counts == inner_counts


class TestMembershipAttribution:
    """Regression: churn between rounds must not leak into round rows.

    A ``DeviceJoined``/``DeviceLost`` landing after round N completes
    must not be swept into round N+1's client rows — the recorder
    tallies membership on its own counters (and, with tracing on, as
    run-level span instants carrying the ``reason``) and never opens a
    ledger row for it.
    """

    def _round(self, rec, round_idx, clients):
        from repro.engine.events import ClientFinished

        for c in clients:
            rec(
                ClientFinished(
                    round_idx=round_idx,
                    client_id=c,
                    compute_s=1.0,
                    comm_s=0.5,
                    total_s=1.5,
                    time_s=1.5,
                )
            )
        rec(
            RoundCompleted(
                round_idx=round_idx,
                makespan_s=1.5,
                mean_time_s=1.5,
                participant_count=len(clients),
                accuracy=None,
                time_s=2.0,
            )
        )

    def test_out_of_round_event_is_not_a_client_row(self):
        from repro.engine.events import DeviceJoined, DeviceLost

        rec = ObsRecorder(trace=False)
        self._round(rec, 1, [0, 1])
        assert sorted(rec.energy.clients) == [0, 1]
        # between rounds: one join, one timeout loss
        rec(DeviceJoined(device_id="d9", client_id=9, time_s=100.0))
        rec(
            DeviceLost(
                device_id="d0", client_id=0,
                reason="timeout", time_s=101.0,
            )
        )
        # the join instant opened no ledger row and moved no round
        assert sorted(rec.energy.clients) == [0, 1]
        assert [r.round_idx for r in rec.rounds] == [1]
        self._round(rec, 2, [1, 9])
        # client 9's *training* row in round 2 is legitimate, and is
        # the only thing its ledger row counts; the loss of client 0
        # neither drops it nor adds a round to it
        assert [r.round_idx for r in rec.rounds] == [1, 2]
        assert [r.participants for r in rec.rounds] == [2, 2]
        assert sorted(rec.energy.clients) == [0, 1, 9]
        assert rec.energy.clients[9].rounds == 1
        assert rec.energy.clients[0].rounds == 1
        assert rec.energy.clients[0].dropped == 0
        assert rec.energy.clients[1].rounds == 2
        # the churn is preserved in its own tallies
        assert rec.device_joins == 1
        assert rec.device_losses == 1
        assert rec.event_counts()["device_joined"] == 1
        assert rec.event_counts()["device_lost"] == 1

    def test_membership_events_survive_the_jsonl_round_trip(
        self, tmp_path
    ):
        from repro.engine.events import DeviceLost

        path = tmp_path / "churn.jsonl"
        sink = JsonlSink(str(path))
        sink(
            DeviceLost(
                device_id="d3", client_id=3,
                reason="deregistered", time_s=7.0,
            )
        )
        sink.close()
        events = read_jsonl(path)
        assert events == [
            {
                "event": "device_lost",
                "device_id": "d3",
                "client_id": 3,
                "reason": "deregistered",
                "time_s": 7.0,
            }
        ]
