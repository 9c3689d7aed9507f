"""Cost-model builders: testbed instances, caching, energy matrices."""

import numpy as np
import pytest

from repro.sched import available_schedulers, get_scheduler
from repro.sched.costs import (
    cached_time_curves,
    testbed_problem,
)


@pytest.fixture(scope="module")
def tb1_problem():
    """Testbed 1 (3 devices), small budget — shared: profiling is the
    expensive part and the curves are cached module-wide anyway."""
    return testbed_problem(1, total_samples=6000, shard_size=500)


class TestTestbedProblem:
    def test_instance_shape_and_meta(self, tb1_problem):
        p = tb1_problem
        assert p.n_users == 3
        assert p.total_shards == 12
        assert p.energy_cost is not None
        assert p.energy_cost.shape == p.time_cost.shape
        assert p.weights is not None and len(p.weights) == 3
        assert p.meta["dataset"] == "mnist"
        assert len(p.meta["devices"]) == 3

    def test_rows_are_monotone(self, tb1_problem):
        assert (np.diff(tb1_problem.time_cost, axis=1) >= -1e-9).all()
        assert (np.diff(tb1_problem.energy_cost, axis=1) >= 0).all()

    def test_every_scheduler_solves_it(self, tb1_problem):
        for name in available_schedulers():
            a = get_scheduler(name).schedule(tb1_problem)
            assert a.schedule.total_shards == tb1_problem.total_shards

    def test_device_name_list_testbed(self):
        p = testbed_problem(
            ["nexus6", "pixel2"], total_samples=2000, shard_size=500
        )
        assert p.n_users == 2
        assert p.meta["devices"] == ("nexus6", "pixel2")

    def test_bad_inputs(self):
        with pytest.raises(KeyError, match="testbed"):
            testbed_problem(99, total_samples=2000)
        with pytest.raises(ValueError, match="device name"):
            testbed_problem([], total_samples=2000)
        with pytest.raises(KeyError, match="dataset"):
            testbed_problem(1, dataset="imagenet")
        with pytest.raises(ValueError, match="shards"):
            testbed_problem(1, total_samples=100, shard_size=500)

    def test_curves_are_cached(self):
        from repro.models.zoo import MNIST_SHAPE, build_model

        net = build_model("lenet", input_shape=MNIST_SHAPE)
        a = cached_time_curves(["pixel2"], net)
        b = cached_time_curves(["pixel2"], net)
        assert a[0] is b[0]
