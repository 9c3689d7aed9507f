"""Asynchronous FL tests."""

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.device.registry import make_device
from repro.federated.asynchronous import (
    AsyncConfig,
    AsyncFederatedSimulation,
)
from repro.models import logistic


def make_async(dataset, device_names, n_users=None, **cfg_kw):
    n = len(device_names)
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n, rng)
    devices = [
        make_device(name, jitter=0.0, seed=i)
        for i, name in enumerate(device_names)
    ]
    model = logistic(input_shape=dataset.input_shape, seed=1)
    return AsyncFederatedSimulation(
        dataset, model, users, devices, config=AsyncConfig(**cfg_kw)
    )


class TestAsyncSimulation:
    def test_updates_arrive_and_model_learns(self, tiny_dataset):
        sim = make_async(
            tiny_dataset, ["pixel2", "nexus6", "mate10"], lr=0.05
        )
        updates = sim.run(horizon_s=120.0)
        assert len(updates) > 3
        assert sim.final_accuracy() > 0.4

    def test_fast_devices_update_more(self, tiny_dataset):
        sim = make_async(tiny_dataset, ["pixel2", "nexus6p"])
        sim.run(horizon_s=200.0)
        counts = sim.update_counts()
        assert counts[0] > counts[1]  # pixel2 outpaces the straggler

    def test_staleness_recorded_and_decays_mix(self, tiny_dataset):
        sim = make_async(
            tiny_dataset, ["pixel2", "nexus6p"], base_mix=0.6
        )
        sim.run(horizon_s=300.0)
        stale = [u for u in sim.updates if u.staleness > 0]
        assert stale, "the slow device must see stale versions"
        for u in stale:
            assert u.mix == pytest.approx(0.6 / (1 + u.staleness))

    def test_clock_advances_to_horizon(self, tiny_dataset):
        sim = make_async(tiny_dataset, ["pixel2", "pixel2"])
        sim.run(horizon_s=50.0)
        assert sim.clock_s <= 50.0 + 1e-9
        assert sim.clock_s > 0

    def test_resumable(self, tiny_dataset):
        sim = make_async(tiny_dataset, ["pixel2", "pixel2"])
        first = sim.run(horizon_s=40.0)
        second = sim.run(horizon_s=40.0)
        assert len(sim.updates) == len(first) + len(second)

    def test_validation(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 2, rng)
        model = logistic(input_shape=tiny_dataset.input_shape)
        with pytest.raises(ValueError):
            AsyncFederatedSimulation(
                tiny_dataset, model, users, [make_device("pixel2")]
            )
        with pytest.raises(ValueError):
            AsyncConfig(base_mix=0.0)
        sim = make_async(tiny_dataset, ["pixel2", "pixel2"])
        with pytest.raises(ValueError):
            sim.run(horizon_s=0.0)

    @pytest.mark.parametrize(
        "cfg_kw,message",
        [
            ({"batch_size": 0}, "batch_size and local_epochs"),
            ({"batch_size": -5}, "batch_size and local_epochs"),
            ({"lr": 0.0}, "lr must be positive"),
            ({"lr": -0.1}, "lr must be positive"),
        ],
    )
    def test_bad_hyperparameters_fail_at_construction(
        self, tiny_dataset, cfg_kw, message
    ):
        """What SimulationConfig rejects, the async simulation rejects
        too — before any device has run (and drained) an epoch."""
        devices = [make_device("pixel2", jitter=0.0) for _ in range(2)]
        users = iid_partition(tiny_dataset, 2, np.random.default_rng(0))
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        with pytest.raises(ValueError, match=message):
            AsyncFederatedSimulation(
                tiny_dataset, model, users, devices,
                config=AsyncConfig(**cfg_kw),
            )
        assert all(d.battery.soc == 1.0 for d in devices)


class TestSyncVsAsync:
    def test_async_no_barrier_more_updates_than_rounds(self, tiny_dataset):
        """Within the same virtual time the async server applies more
        updates than the synchronous round count — the latency win the
        paper acknowledges (before the divergence caveat)."""
        sim = make_async(tiny_dataset, ["pixel2", "nexus6p"])
        # one synchronous round would take the straggler's epoch time
        straggler_epoch = sim._epoch_time(1)
        sim.devices[1].reset()
        updates = sim.run(horizon_s=straggler_epoch * 1.01)
        # pixel2 alone contributes several updates in that window
        assert len(updates) >= 2
