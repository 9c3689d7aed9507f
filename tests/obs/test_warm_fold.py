"""A warm round's fold does no label key work.

``ObsRecorder`` binds every series it writes once — the unlabelled ones
when it is built, a strategy's or a scheduler's on the first event that
names it — so once each has been seen, folding a round resolves no
label set: ``Metric._key`` is not called. Counted here on a narrated
``FleetRunner`` round (schedule, the clients' column batches, the
round's close) and on an object-path sync round (dispatches and
finishes one by one, the aggregation, the accuracy). That the export
is unchanged is the golden digests' word (``test_client_series.py``).
"""

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.device.registry import make_device
from repro.engine import EventBus
from repro.federated import FederatedSimulation, SimulationConfig
from repro.fleet import FleetRunner, UniformSampler, synthetic_fleet
from repro.models import logistic
from repro.obs import ObsRecorder
from repro.obs.metrics import Metric
from repro.sched import get_scheduler
from repro.sched.binding import EngineSchedulerBinding


@pytest.fixture
def key_calls(monkeypatch):
    calls = []
    real_key = Metric._key

    def counting(self, labels):
        calls.append((self.name, dict(labels)))
        return real_key(self, labels)

    def start():
        monkeypatch.setattr(Metric, "_key", counting)
        return calls

    return start


def test_a_warm_narrated_fleet_round_resolves_no_label_set(key_calls):
    bus = EventBus()
    runner = FleetRunner(
        synthetic_fleet(2_000, seed=3),
        scheduler=get_scheduler("proportional"),
        sampler=UniformSampler(3),
        cohort_size=64,
        shard_size=500,
        detail_threshold=64,
        bus=bus,
    )
    recorder = ObsRecorder(trace=True, run_name="warm")
    bus.subscribe(recorder)
    runner.run_round()
    calls = key_calls()
    runner.run_round()
    runner.run_round()
    assert calls == []
    assert recorder.metrics.get("repro_rounds_total").value() == 3


def test_a_warm_engine_round_resolves_no_label_set(
    key_calls, tiny_dataset
):
    phones = ["pixel2", "nexus6p", "mate10"]
    sim = FederatedSimulation(
        tiny_dataset,
        logistic(input_shape=tiny_dataset.input_shape, seed=1),
        iid_partition(tiny_dataset, len(phones), np.random.default_rng(0)),
        devices=[make_device(p, jitter=0.0) for p in phones],
        config=SimulationConfig(lr=0.05),
    )
    sim.engine.bind_scheduler(
        EngineSchedulerBinding("fed_lbap", shard_size=50)
    )
    recorder = ObsRecorder(trace=True, run_name="warm")
    sim.events.subscribe(recorder)
    sim.run_round()
    calls = key_calls()
    sim.run(2)
    assert calls == []
    aggregations = recorder.metrics.get("repro_aggregations_total")
    assert aggregations.total() == 3
