"""ObsRecorder: live fold vs JSONL replay, energy ledger, summaries."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticConfig, make_dataset
from repro.device.registry import make_device
from repro.engine.events import (
    EVENT_TYPES,
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    DeviceJoined,
    DeviceLost,
    RoundCompleted,
    event_from_dict,
)
from repro.engine.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    JsonlSink,
    read_jsonl_meta,
)
from repro.federated.simulation import FederatedSimulation, SimulationConfig
from repro.models import logistic
from repro.obs import (
    ObsRecorder,
    catalog,
    observe_engine,
    render_prometheus,
    render_trace_json,
)

from ..engine.conftest import events_of


@pytest.fixture(scope="module")
def small_dataset():
    return make_dataset(
        SyntheticConfig(
            name="obs-test",
            shape=(1, 8, 8),
            num_classes=10,
            train_size=200,
            test_size=80,
            noise=1.0,
            seed=42,
        )
    )


def make_sim(dataset, n_users=3):
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n_users, rng)
    devices = [make_device("pixel2", jitter=0.0) for _ in range(n_users)]
    model = logistic(input_shape=dataset.input_shape, seed=1)
    return FederatedSimulation(
        dataset, model, users, devices=devices,
        config=SimulationConfig(lr=0.05),
    )


class TestSyntheticFold:
    def test_metrics_from_synthetic_stream(self, synthetic_dicts):
        rec = ObsRecorder().replay(synthetic_dicts)
        m = rec.metrics
        assert m.counter(catalog.ROUNDS_TOTAL).value() == 2
        assert m.counter(catalog.EVENTS_TOTAL).value(
            kind="client_finished"
        ) == 3
        assert m.counter(catalog.CLIENTS_DROPPED_TOTAL).value(
            client=1
        ) == 1
        assert m.gauge(catalog.ACCURACY).value() == pytest.approx(0.75)
        assert m.gauge(catalog.CLOCK_SECONDS).value() == pytest.approx(16.0)
        assert m.counter(catalog.CLIENT_ENERGY_JOULES_TOTAL).value(
            client=0
        ) == pytest.approx(50.0)
        assert m.gauge(catalog.BATTERY_SOC).value(client=1) == (
            pytest.approx(0.8)
        )
        assert m.histogram(catalog.ROUND_MAKESPAN_SECONDS).count() == 2

    def test_round_summaries(self, synthetic_dicts):
        rec = ObsRecorder().replay(synthetic_dicts)
        assert [r.round_idx for r in rec.rounds] == [1, 2]
        r1, r2 = rec.rounds
        assert r1.dropped == 1
        assert r1.energy_j == pytest.approx(30.0)
        assert r1.straggler_id == 0  # only client 0 finished
        assert r2.dropped == 0
        assert r2.energy_j == pytest.approx(75.0)
        assert r2.straggler_id == 1
        assert r2.straggler_s == pytest.approx(6.0)

    def test_energy_ledger(self, synthetic_dicts):
        rec = ObsRecorder().replay(synthetic_dicts)
        ledger = rec.energy
        assert ledger.total_energy_j == pytest.approx(105.0)
        by_client = {c.client_id: c for c in ledger.by_client()}
        assert by_client[0].energy_j == pytest.approx(50.0)
        assert by_client[0].rounds == 2
        assert by_client[1].dropped == 1
        assert by_client[1].last_soc == pytest.approx(0.8)
        assert ledger.round_energy == [
            (1, pytest.approx(30.0)),
            (2, pytest.approx(75.0)),
        ]

    def test_event_counts(self, synthetic_dicts):
        rec = ObsRecorder().replay(synthetic_dicts)
        counts = rec.event_counts()
        assert counts["round_completed"] == 2
        assert counts["client_dropped"] == 1
        assert rec.n_events == len(synthetic_dicts)

    def test_trace_disabled_skips_spans(self, synthetic_dicts):
        rec = ObsRecorder(trace=False).replay(synthetic_dicts)
        assert rec.spans is None
        assert rec.finish_spans() == []
        # metrics still fold
        assert rec.metrics.counter(catalog.ROUNDS_TOTAL).value() == 2


class TestLiveVsReplay:
    def test_live_engine_matches_jsonl_replay(
        self, small_dataset, tmp_path
    ):
        """Acceptance: the live recorder and a replay from the JSONL
        the same run streamed agree on every exported number."""
        from repro.obs import render_prometheus

        path = tmp_path / "run.jsonl"
        sim = make_sim(small_dataset)
        sink = JsonlSink(str(path))
        sim.events.subscribe(sink)
        live = ObsRecorder()
        sim.events.subscribe(live)
        sim.run(2, train=False)
        sink.close()

        replayed = ObsRecorder.from_jsonl(path)
        assert replayed.schema_version == TELEMETRY_SCHEMA_VERSION
        assert replayed.corrupt_lines == 0
        assert render_prometheus(replayed.metrics) == render_prometheus(
            live.metrics
        )
        assert len(replayed.rounds) == len(live.rounds) == 2
        assert replayed.energy.total_energy_j == pytest.approx(
            live.energy.total_energy_j
        )

    def test_live_typed_and_dict_folds_agree(self, synthetic_events):
        from repro.obs import render_prometheus

        typed = ObsRecorder()
        for event in synthetic_events:
            typed(event)
        dicts = ObsRecorder().replay(
            [e.to_dict() for e in synthetic_events]
        )
        assert render_prometheus(typed.metrics) == render_prometheus(
            dicts.metrics
        )

    def test_observe_engine_unsubscribes(self, small_dataset):
        sim = make_sim(small_dataset)
        with observe_engine(sim.engine) as recorder:
            sim.run(1, train=False)
        inside = recorder.n_events
        assert inside > 0
        sim.run(1, train=False)
        assert recorder.n_events == inside  # detached after the context


class TestFromJsonlRobustness:
    def test_corrupt_lines_counted(self, synthetic_jsonl):
        with synthetic_jsonl.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "round_comp')  # torn final write
        rec = ObsRecorder.from_jsonl(synthetic_jsonl)
        assert rec.corrupt_lines == 1
        assert rec.metrics.counter(catalog.ROUNDS_TOTAL).value() == 2

    def test_meta_header_not_counted_as_event(self, synthetic_jsonl):
        rec = ObsRecorder.from_jsonl(synthetic_jsonl)
        n_lines = len(synthetic_jsonl.read_text().splitlines())
        assert rec.n_events == n_lines - 1  # minus the meta header

    def test_run_name_defaults_to_file_stem(self, synthetic_jsonl):
        rec = ObsRecorder.from_jsonl(synthetic_jsonl)
        (run,) = rec.finish_spans()
        assert run.name == "synthetic"

    @pytest.mark.parametrize("solve_ms", [2.5, 0, None])
    def test_a_v4_capture_replays_as_its_v5_twin(
        self, tmp_path, synthetic_dicts, solve_ms
    ):
        """Schema v4 carried the solver's host milliseconds on
        ``schedule_computed``; v5 has no such field. A v4 capture still
        decodes to the same events and folds to the same bytes."""

        def write(version, dicts):
            path = tmp_path / f"v{version}.jsonl"
            header = {"event": "telemetry_meta", "schema_version": version}
            path.write_text(
                "".join(json.dumps(d) + "\n" for d in (header, *dicts))
            )
            return path

        schedule, *rest = synthetic_dicts
        assert schedule["event"] == "schedule_computed"
        assert "solve_ms" not in schedule
        old = write(4, [dict(schedule, solve_ms=solve_ms), *rest])
        new = write(5, synthetic_dicts)
        old_read, new_read = read_jsonl_meta(old), read_jsonl_meta(new)
        assert (old_read.schema_version, new_read.schema_version) == (4, 5)
        assert [event_from_dict(d) for d in old_read.events] == [
            event_from_dict(d) for d in new_read.events
        ]
        old_rec = ObsRecorder.from_jsonl(old, run_name="run")
        new_rec = ObsRecorder.from_jsonl(new, run_name="run")
        assert render_prometheus(old_rec.metrics) == render_prometheus(
            new_rec.metrics
        )
        assert render_trace_json(old_rec.finish_spans()) == (
            render_trace_json(new_rec.finish_spans())
        )


class TestMembershipFold:
    """Membership events tally and span, on both fold paths."""

    def test_live_fold_counts_joins_and_losses(self):
        from repro.engine.events import DeviceJoined, DeviceLost

        rec = ObsRecorder(run_name="serve")
        rec(DeviceJoined(device_id="a", client_id=0, time_s=1.0))
        rec(DeviceJoined(device_id="b", client_id=1, time_s=2.0))
        rec(
            DeviceLost(
                device_id="a", client_id=0,
                reason="timeout", time_s=9.0,
            )
        )
        assert rec.device_joins == 2
        assert rec.device_losses == 1
        (run,) = rec.finish_spans()
        membership = [
            s for s in run.children if s.category == "membership"
        ]
        assert len(membership) == 3

    def test_dict_fold_matches_live(self):
        rec = ObsRecorder(run_name="serve")
        rec.add_dict(
            {
                "event": "device_joined", "device_id": "a",
                "client_id": 0, "time_s": 1.0,
            }
        )
        rec.add_dict(
            {
                "event": "device_lost", "device_id": "a",
                "client_id": 0, "reason": "deregistered",
                "time_s": 2.0,
            }
        )
        assert rec.device_joins == 1
        assert rec.device_losses == 1
        events = rec.metrics.counter(catalog.EVENTS_TOTAL)
        assert events.value(kind="device_joined") == 1
        assert events.value(kind="device_lost") == 1


# -- one fold: live == replay, for any stream ----------------------------

#: small id spaces so generated dispatches, finishes, drops and round
#: completions actually meet; non-negative numbers because counters
#: only go up
_STREAM_EVENT = st.one_of(
    [
        events_of(
            cls,
            ints=st.integers(0, 3),
            floats=st.floats(0.0, 1e4),
            texts=st.sampled_from(["olar", "fed avg", 'q"uo\\te', ""]),
        )
        for cls in EVENT_TYPES.values()
    ]
)


def _finished(round_idx, client_id, time_s):
    return ClientFinished(
        round_idx=round_idx, client_id=client_id, compute_s=2.0,
        comm_s=1.0, total_s=3.0, time_s=time_s, energy_j=5.0,
    )


def _completed(round_idx, time_s):
    return RoundCompleted(
        round_idx=round_idx, makespan_s=3.0, mean_time_s=3.0,
        participant_count=1, accuracy=None, time_s=time_s,
    )


def _outputs(recorder):
    """Everything a recorder exports, in comparable form."""
    return {
        "prom": render_prometheus(recorder.metrics),
        "trace": render_trace_json(recorder.finish_spans()),
        "ledger": recorder.energy,
        "rounds": [
            tuple(getattr(r, name) for name in r.__slots__)
            for r in recorder.rounds
        ],
        "tallies": (
            recorder.n_events,
            recorder.device_joins,
            recorder.device_losses,
        ),
    }


def _live(events):
    recorder = ObsRecorder()
    for event in events:
        recorder(event)
    return recorder


def _replayed_from_jsonl_text(events):
    stream = io.StringIO()
    sink = JsonlSink(stream)
    for event in events:
        sink(event)
    return ObsRecorder().replay(
        json.loads(line) for line in stream.getvalue().splitlines()
    )


class TestOneFold:
    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(_STREAM_EVENT, max_size=30))
    @example(  # a drop narrated without a finish, closed by the barrier
        events=[
            ClientDispatched(1, 0, 10, 0.0),
            ClientDropped(1, 0, 4.0, 4.0),
            _completed(1, 4.0),
        ]
    )
    @example(  # a finish with no dispatch (trimmed capture)
        events=[_finished(2, 7, 10.0), _completed(2, 10.0)]
    )
    @example(  # membership strictly between two rounds
        events=[
            ClientDispatched(1, 0, 10, 0.0),
            _finished(1, 0, 3.0),
            _completed(1, 3.0),
            DeviceJoined("d7", 7, 5.0),
            DeviceLost("d0", 0, "timeout", 6.0),
            ClientDispatched(2, 7, 10, 7.0),
            _completed(2, 9.0),
        ]
    )
    @example(  # async-style: no RoundCompleted at all
        events=[
            ClientDispatched(0, 3, 10, 1.0),
            ClientDispatched(0, 4, 10, 2.0),
            _finished(0, 3, 2.5),
        ]
    )
    def test_live_and_jsonl_replay_export_the_same_bytes(self, events):
        assert _outputs(_live(events)) == _outputs(
            _replayed_from_jsonl_text(events)
        )

    def test_integer_stamped_events_move_the_clock_on_both_paths(self):
        """Regression: the live ladder took only ``float`` timestamps,
        the replay ladder ``int`` too — three integer-stamped events
        left ``repro_clock_seconds`` unset live and at 3 replayed."""
        events = [
            ClientDispatched(round_idx=1, client_id=0, n_samples=10, time_s=0),
            ClientFinished(
                round_idx=1, client_id=0, compute_s=2, comm_s=1,
                total_s=3, time_s=3,
            ),
            RoundCompleted(
                round_idx=1, makespan_s=3, mean_time_s=3,
                participant_count=1, accuracy=None, time_s=3,
            ),
        ]
        live = _live(events)
        replayed = ObsRecorder().replay([e.to_dict() for e in events])
        assert live.metrics.gauge(catalog.CLOCK_SECONDS).value() == 3.0
        assert render_prometheus(live.metrics) == render_prometheus(
            replayed.metrics
        )

    def test_undeclared_kind_counts_as_an_event_and_nothing_else(self):
        rec = ObsRecorder()
        rec.add_dict({"event": "telemetry_meta", "schema_version": 4})
        assert rec.n_events == 0
        rec.add_dict({"event": "future_kind", "time_s": 99.0})
        assert rec.n_events == 1
        assert rec.event_counts() == {"future_kind": 1}
        assert rec.metrics.gauge(catalog.CLOCK_SECONDS).value() is None
        assert rec.finish_spans() == []


def test_ledger_total_adds_left_to_right():
    """``(1e16 + 1) - 1e16`` is 0.0 added in order; the compensated
    ``sum`` of 3.12 reads 1.0, so CI's Python legs would disagree."""
    ledger = ObsRecorder().energy
    ledger.on_clients_finished(
        (0, 1, 2), (1.0, 1.0, 1.0), (1e16, 1.0, -1e16), (None,) * 3
    )
    assert ledger.total_energy_j == 0.0
