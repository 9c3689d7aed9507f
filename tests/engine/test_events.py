"""Event-stream tests: golden sequences, payload integrity, wire codec."""

import dataclasses
import json
from typing import Optional, Tuple, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import iid_partition
from repro.device.registry import make_device
from repro.engine import (
    EVENT_TYPES,
    ClientDispatched,
    ClientDropped,
    ClientFinished,
    EventBus,
    ModelAggregated,
    RoundCompleted,
    event_from_dict,
)
from repro.engine import events as events_module
from repro.engine.events import EngineEvent
from repro.federated import (
    AsyncFederatedSimulation,
    AsyncUpdate,
    DecentralizedSimulation,
    make_topology,
)
from repro.federated.dropout import DropoutPolicy
from repro.federated.simulation import FederatedSimulation, SimulationConfig
from repro.models import logistic

from .conftest import events_of


def make_sim(dataset, n_users=2, devices=None, **cfg_kw):
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n_users, rng)
    model = logistic(input_shape=dataset.input_shape, seed=1)
    return FederatedSimulation(
        dataset, model, users, devices=devices,
        config=SimulationConfig(lr=0.05, **cfg_kw),
    )


class TestGoldenSequence:
    def test_two_users_two_rounds_sync(self, tiny_dataset):
        """The exact event sequence of a 2-user, 2-round sync run."""
        devices = [make_device("pixel2", jitter=0.0) for _ in range(2)]
        sim = make_sim(tiny_dataset, devices=devices, eval_every=1)
        events = []
        sim.events.subscribe(events.append)
        sim.run(2)

        kinds = [e.kind for e in events]
        per_round = [
            "client_dispatched",
            "client_finished",
            "client_dispatched",
            "client_finished",
            "model_aggregated",
            "round_completed",
        ]
        assert kinds == per_round + per_round

        # round indices: first six events belong to round 1, rest to 2
        assert all(e.round_idx == 1 for e in events[:6])
        assert all(e.round_idx == 2 for e in events[6:])
        # clients dispatched in order 0, 1 each round
        dispatches = [
            e for e in events if isinstance(e, ClientDispatched)
        ]
        assert [e.client_id for e in dispatches] == [0, 1, 0, 1]
        # aggregation saw both participants with the fedavg strategy
        agg = [e for e in events if isinstance(e, ModelAggregated)]
        assert all(e.participants == (0, 1) for e in agg)
        assert all(e.strategy == "fedavg" for e in agg)

    def test_round_completed_matches_record(self, tiny_dataset):
        devices = [
            make_device(n, jitter=0.0) for n in ("pixel2", "mate10")
        ]
        sim = make_sim(tiny_dataset, devices=devices, eval_every=1)
        events = []
        sim.events.subscribe(events.append)
        record = sim.run_round()
        done = [e for e in events if isinstance(e, RoundCompleted)]
        assert len(done) == 1
        assert done[0].makespan_s == pytest.approx(record.makespan_s)
        assert done[0].mean_time_s == pytest.approx(record.mean_time_s)
        assert done[0].participant_count == record.participant_count
        assert done[0].accuracy == record.accuracy

    def test_client_finished_times_sum(self, tiny_dataset):
        devices = [make_device("pixel2", jitter=0.0) for _ in range(2)]
        sim = make_sim(tiny_dataset, devices=devices)
        events = []
        sim.events.subscribe(events.append)
        record = sim.run_round(train=False)
        finished = [e for e in events if isinstance(e, ClientFinished)]
        for e in finished:
            assert e.total_s == pytest.approx(e.compute_s + e.comm_s)
            assert e.total_s == pytest.approx(
                record.per_user_time_s[e.client_id]
            )

    def test_dropped_straggler_emits_event(self, tiny_dataset):
        devices = [
            make_device(n, jitter=0.0)
            for n in ("pixel2", "pixel2", "nexus6p")
        ]
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            tiny_dataset, model, users, devices=devices,
            dropout=DropoutPolicy(deadline_factor=1.2),
        )
        events = []
        sim.events.subscribe(events.append)
        record = sim.run_round(train=False)
        dropped = [e for e in events if isinstance(e, ClientDropped)]
        assert [e.client_id for e in dropped] == [2]
        assert record.participant_count == 2

    def test_two_phones_async(self, tiny_dataset):
        """The async loop's order: every client is dispatched up front,
        then each applied update is finish, merge, re-dispatch for one
        client, stamped with the model version it produced."""
        users = iid_partition(tiny_dataset, 2, np.random.default_rng(0))
        devices = [
            make_device(n, jitter=0.0, seed=i)
            for i, n in enumerate(("pixel2", "nexus6p"))
        ]
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = AsyncFederatedSimulation(tiny_dataset, model, users, devices)
        events = []
        sim.events.subscribe(events.append)
        updates = sim.run(60.0)

        assert len(updates) >= 3
        assert sim.version == len(sim.updates) == len(updates)
        assert all(isinstance(u, AsyncUpdate) for u in updates)
        # the stream opens with both clients pulling version 0
        assert [(e.kind, e.round_idx, e.client_id) for e in events[:2]] == [
            ("client_dispatched", 0, 0),
            ("client_dispatched", 0, 1),
        ]
        assert len(events) == 2 + 3 * len(updates)
        last_dispatch = {e.client_id: e.time_s for e in events[:2]}
        finish_times = []
        for version, update in enumerate(updates, start=1):
            finished, merged, pulled = events[3 * version - 1:][:3]
            assert [e.kind for e in (finished, merged, pulled)] == [
                "client_finished",
                "model_aggregated",
                "client_dispatched",
            ]
            j = update.user_id
            assert finished.client_id == pulled.client_id == j
            assert merged.participants == (j,)
            assert merged.strategy == "fedasync"
            assert (
                finished.round_idx
                == merged.round_idx
                == merged.version
                == pulled.round_idx
                == version
            )
            assert finished.time_s == merged.time_s == update.time_s
            assert finished.comm_s == 0.0
            assert finished.compute_s == finished.total_s
            assert finished.compute_s == finished.time_s - last_dispatch[j]
            last_dispatch[j] = pulled.time_s
            finish_times.append(finished.time_s)
        assert finish_times == sorted(finish_times)

        # a second run() restarts every in-flight epoch: both clients
        # re-pull the current version before anything else happens
        seen, version = len(events), sim.version
        sim.run(10.0)
        assert [
            (e.kind, e.round_idx, e.client_id) for e in events[seen:seen + 2]
        ] == [
            ("client_dispatched", version, 0),
            ("client_dispatched", version, 1),
        ]

    def test_ring_of_three_gossip(self, tiny_dataset):
        """The gossip round's order: every node trains in turn, then one
        mixing step and the round record; no devices, so no time."""
        users = iid_partition(tiny_dataset, 3, np.random.default_rng(0))
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = DecentralizedSimulation(
            tiny_dataset, model, users, make_topology("ring", 3)
        )
        events = []
        sim.events.subscribe(events.append)
        sim.run(2)

        per_round = [
            ("client_dispatched", 0),
            ("client_finished", 0),
            ("client_dispatched", 1),
            ("client_finished", 1),
            ("client_dispatched", 2),
            ("client_finished", 2),
            ("model_aggregated", None),
            ("round_completed", None),
        ]
        assert [
            (e.kind, getattr(e, "client_id", None)) for e in events
        ] == per_round + per_round
        assert [e.round_idx for e in events] == [1] * 8 + [2] * 8
        mixed = [e for e in events if isinstance(e, ModelAggregated)]
        assert all(e.strategy == "gossip" for e in mixed)
        assert all(e.participants == (0, 1, 2) for e in mixed)
        assert [e.version for e in mixed] == [1, 2]
        done = [e for e in events if isinstance(e, RoundCompleted)]
        assert all(e.makespan_s == 0.0 for e in done)
        assert all(e.accuracy is None for e in done)
        assert all(e.participant_count == 3 for e in done)
        assert sim.round_idx == 2


class TestEventPayloads:
    def test_to_dict_is_json_safe(self):
        import json

        e = ModelAggregated(
            round_idx=1,
            participants=(0, 2),
            strategy="fedavg",
            version=1,
            time_s=1.5,
        )
        payload = e.to_dict()
        assert payload["event"] == "model_aggregated"
        assert payload["participants"] == [0, 2]
        json.dumps(payload)  # must not raise

    def test_events_are_frozen(self):
        e = ClientDispatched(
            round_idx=1, client_id=0, n_samples=10, time_s=0.0
        )
        with pytest.raises(AttributeError):
            e.client_id = 3


class TestEventBus:
    def test_subscribe_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        event = RoundCompleted(
            round_idx=1, makespan_s=0.0, mean_time_s=0.0,
            participant_count=1, accuracy=None, time_s=0.0,
        )
        bus.emit(event)
        unsubscribe()
        bus.emit(event)
        assert len(seen) == 1

    def test_global_listener_sees_every_bus(self):
        seen = []
        EventBus.add_global_listener(seen.append)
        try:
            event = RoundCompleted(
                round_idx=1, makespan_s=0.0, mean_time_s=0.0,
                participant_count=1, accuracy=None, time_s=0.0,
            )
            EventBus().emit(event)
            EventBus().emit(event)
        finally:
            EventBus.remove_global_listener(seen.append)
        assert len(seen) == 2


# -- the wire codec: to_dict / event_from_dict ---------------------------

every_event_class = pytest.mark.parametrize(
    "cls", list(EVENT_TYPES.values()), ids=list(EVENT_TYPES)
)

#: what a missing or mistyped field decodes to, by declared type
DOCUMENTED_DEFAULTS = {
    int: 0,
    float: 0.0,
    Optional[float]: None,
    str: "?",
    Tuple[int, ...]: (),
}


def reference_to_dict(event):
    """``EngineEvent.to_dict`` as it was before the codec: a deep
    ``dataclasses.asdict`` copy, tuples turned into lists."""
    payload = {"event": event.kind}
    for key, value in dataclasses.asdict(event).items():
        if isinstance(value, tuple):
            value = list(value)
        payload[key] = value
    return payload


class TestTaxonomy:
    def test_every_exported_event_class_is_declared_once(self):
        exported = [
            getattr(events_module, name) for name in events_module.__all__
        ]
        classes = [
            obj
            for obj in exported
            if isinstance(obj, type)
            and issubclass(obj, EngineEvent)
            and obj is not EngineEvent
        ]
        assert len(classes) == 9
        assert sorted(EVENT_TYPES.values(), key=lambda c: c.__name__) == (
            sorted(classes, key=lambda c: c.__name__)
        )
        # kinds are unique, and each class sits under its own
        assert len({cls.kind for cls in classes}) == len(classes)
        assert all(cls.kind == kind for kind, cls in EVENT_TYPES.items())

    def test_repro_engine_exports_the_codec(self):
        import repro.engine

        assert {"EVENT_TYPES", "event_from_dict"} <= set(
            repro.engine.__all__
        )


class TestCodec:
    @every_event_class
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_is_identity(self, cls, data):
        event = data.draw(events_of(cls))
        wire = json.loads(json.dumps(event.to_dict()))
        decoded = event_from_dict(wire)
        assert type(decoded) is type(event)
        assert decoded == event

    @every_event_class
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_to_dict_matches_the_asdict_reference(self, cls, data):
        event = data.draw(events_of(cls))
        payload, reference = event.to_dict(), reference_to_dict(event)
        assert payload == reference
        assert list(payload) == list(reference)  # same key order
        assert json.dumps(payload) == json.dumps(reference)

    def test_to_dict_does_not_alias_the_event(self):
        event = ModelAggregated(
            round_idx=1, participants=(0, 2), strategy="fedavg",
            version=1, time_s=1.5,
        )
        payload = event.to_dict()
        payload["participants"].append(9)
        assert event.participants == (0, 2)

    @every_event_class
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_trimmed_and_mistyped_fields_take_the_defaults(self, cls, data):
        """Each field in turn dropped, nulled, and given the wrong JSON
        type: decoding never raises, that field takes its documented
        default, every other field survives."""
        event = data.draw(events_of(cls))
        hints = get_type_hints(type(event))
        full = event.to_dict()
        for field in dataclasses.fields(event):
            declared = hints[field.name]
            wrong = 7 if declared is str else "seven"
            trimmed = {k: v for k, v in full.items() if k != field.name}
            for payload in (
                trimmed,
                {**full, field.name: None},
                {**full, field.name: wrong},
            ):
                decoded = event_from_dict(payload)
                assert decoded == dataclasses.replace(
                    event, **{field.name: DOCUMENTED_DEFAULTS[declared]}
                )

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"event": None},
            {"event": ["client_finished"]},
            {"event": "telemetry_meta", "schema_version": 4},
            {"event": "future_kind", "time_s": 1.0},
        ],
    )
    def test_undeclared_kinds_decode_to_none(self, payload):
        assert event_from_dict(payload) is None

    def test_non_finite_numbers_never_raise(self):
        wire = json.loads(
            '{"event": "client_dispatched", "round_idx": Infinity,'
            ' "client_id": NaN, "n_samples": 2.9, "time_s": Infinity}'
        )
        assert event_from_dict(wire) == ClientDispatched(
            round_idx=0, client_id=0, n_samples=2, time_s=float("inf")
        )

    def test_bare_kind_decodes_to_all_defaults(self):
        for kind, cls in EVENT_TYPES.items():
            hints = get_type_hints(cls)
            assert event_from_dict({"event": kind}) == cls(
                **{
                    f.name: DOCUMENTED_DEFAULTS[hints[f.name]]
                    for f in dataclasses.fields(cls)
                }
            )
