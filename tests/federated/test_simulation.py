"""Synchronous FL simulation tests: learning + virtual clock coupling."""

import numpy as np
import pytest

from repro.data.partition import UserData, iid_partition, noniid_partition
from repro.device.registry import make_device
from repro.engine import evaluate_accuracy
from repro.federated.simulation import FederatedSimulation, SimulationConfig
from repro.models import logistic
from repro.network.link import make_link


def make_sim(dataset, n_users=4, devices=None, links=None, **cfg_kw):
    rng = np.random.default_rng(0)
    users = iid_partition(dataset, n_users, rng)
    model = logistic(input_shape=dataset.input_shape, seed=1)
    cfg = SimulationConfig(lr=0.05, **cfg_kw)
    return FederatedSimulation(
        dataset, model, users, devices=devices, links=links, config=cfg
    )


class TestLearning:
    def test_accuracy_improves_over_rounds(self, tiny_dataset):
        sim = make_sim(tiny_dataset, eval_every=1)
        history = sim.run(8)
        accs = history.accuracies()
        assert accs[-1] > accs[0]
        assert accs[-1] > 0.5

    def test_noniid_worse_than_iid(self, tiny_dataset):
        iid = make_sim(tiny_dataset, eval_every=8)
        iid.run(8)
        rng = np.random.default_rng(0)
        users = noniid_partition(tiny_dataset, 4, 2, rng)
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        noniid = FederatedSimulation(
            tiny_dataset, model, users,
            config=SimulationConfig(lr=0.05, eval_every=8),
        )
        noniid.run(8)
        assert iid.final_accuracy() > noniid.final_accuracy()

    def test_global_model_changes_each_round(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        w0 = sim.server.global_weights().copy()
        sim.run_round()
        assert not np.allclose(w0, sim.server.global_weights())

    def test_train_false_keeps_weights(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        w0 = sim.server.global_weights().copy()
        sim.run_round(train=False)
        np.testing.assert_allclose(w0, sim.server.global_weights())

    def test_eval_every(self, tiny_dataset):
        sim = make_sim(tiny_dataset, eval_every=2)
        history = sim.run(4)
        evals = [r.accuracy for r in history.records]
        assert evals[0] is None and evals[1] is not None
        assert evals[2] is None and evals[3] is not None


class TestVirtualClock:
    def test_makespan_from_devices(self, tiny_dataset):
        devices = [
            make_device(n, jitter=0.0)
            for n in ("pixel2", "nexus6", "mate10", "nexus6p")
        ]
        sim = make_sim(tiny_dataset, devices=devices, eval_every=10)
        record = sim.run_round(train=False)
        assert record.makespan_s > 0
        active = record.per_user_time_s[record.per_user_time_s > 0]
        assert record.makespan_s == pytest.approx(active.max())
        # straggler gap exists with equal split on heterogeneous devices
        assert record.makespan_s > record.mean_time_s

    def test_links_add_comm_time(self, tiny_dataset):
        devices = [make_device("pixel2", jitter=0.0) for _ in range(4)]
        no_link = make_sim(tiny_dataset, devices=devices)
        t0 = no_link.run_round(train=False).makespan_s
        devices2 = [make_device("pixel2", jitter=0.0) for _ in range(4)]
        links = [make_link("lte") for _ in range(4)]
        with_link = make_sim(tiny_dataset, devices=devices2, links=links)
        t1 = with_link.run_round(train=False).makespan_s
        assert t1 > t0

    def test_no_devices_zero_time(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        record = sim.run_round(train=False)
        assert record.makespan_s == 0.0

    def test_devices_accumulate_heat_across_rounds(self, tiny_dataset):
        devices = [make_device("nexus6p", jitter=0.0) for _ in range(4)]
        sim = make_sim(tiny_dataset, devices=devices, aggregation_s=0.0)
        sim.run(2, train=False)
        assert devices[0].thermal.temp_c > 25.0

    def test_total_time_is_sum_of_makespans(self, tiny_dataset):
        devices = [make_device("pixel2", jitter=0.0) for _ in range(4)]
        sim = make_sim(tiny_dataset, devices=devices)
        h = sim.run(3, train=False)
        assert h.total_time_s == pytest.approx(sum(h.makespans()))


class TestValidation:
    def test_device_count_mismatch(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        model = logistic(input_shape=tiny_dataset.input_shape)
        with pytest.raises(ValueError):
            FederatedSimulation(
                tiny_dataset, model, users,
                devices=[make_device("pixel2")],
            )

    def test_empty_users_raise(self, tiny_dataset):
        model = logistic(input_shape=tiny_dataset.input_shape)
        with pytest.raises(ValueError):
            FederatedSimulation(tiny_dataset, model, [])

    def test_all_empty_users_raise_at_round(self, tiny_dataset):
        model = logistic(input_shape=tiny_dataset.input_shape)
        users = [UserData(0, np.zeros(0, dtype=np.int64), (0,))]
        sim = FederatedSimulation(tiny_dataset, model, users)
        with pytest.raises(RuntimeError):
            sim.run_round()

    def test_bad_round_count(self, tiny_dataset):
        sim = make_sim(tiny_dataset)
        with pytest.raises(ValueError):
            sim.run(0)


class TestMetrics:
    def test_evaluate_accuracy_batched_equals_full(self, tiny_dataset):
        model = logistic(input_shape=tiny_dataset.input_shape, seed=2)
        a = evaluate_accuracy(
            model, tiny_dataset.x_test, tiny_dataset.y_test, batch_size=32
        )
        b = evaluate_accuracy(
            model, tiny_dataset.x_test, tiny_dataset.y_test, batch_size=10_000
        )
        assert a == pytest.approx(b)

    def test_empty_eval_set_raises(self, tiny_dataset):
        model = logistic(input_shape=tiny_dataset.input_shape)
        with pytest.raises(ValueError):
            evaluate_accuracy(
                model, tiny_dataset.x_test[:0], tiny_dataset.y_test[:0]
            )
