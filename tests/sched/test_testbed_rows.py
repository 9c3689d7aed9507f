"""Testbed problems are class form: one row per distinct phone.

The rows must be the old dense build's bits — ``build_cost_matrix``
over the cached curves, one row per user — and every registered
scheduler must answer the class-form problem exactly as it answers
that dense one. The curve caches key on what a profiling run depends
on, so two unnamed models of different sizes never share a curve.
"""

import numpy as np
import pytest

from repro.core.cost import build_cost_matrix
from repro.device.registry import TESTBEDS
from repro.models.layers import Dense, Flatten, ReLU
from repro.models.network import Sequential
from repro.models.zoo import build_model
from repro.sched import (
    SchedulingProblem,
    available_schedulers,
    get_scheduler,
)
from repro.sched.costs import (
    DATASET_SHAPES,
    DATASET_TOTALS,
    cached_energy_curves,
    cached_time_curves,
    clear_cost_cache,
    testbed_problem,
)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def old_dense(names, dataset, shard_size, total=None):
    """The matrices ``testbed_problem`` built before it went class form."""
    net = build_model("lenet", input_shape=DATASET_SHAPES[dataset])
    shards = (total or DATASET_TOTALS[dataset]) // shard_size
    time_cost = build_cost_matrix(
        cached_time_curves(names, net), shards, shard_size
    )
    energy_cost = build_cost_matrix(
        cached_energy_curves(names, net), shards, shard_size
    )
    return time_cost, energy_cost


@pytest.mark.parametrize("with_energy", [True, False])
@pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
@pytest.mark.parametrize("testbed", [1, 2, 3])
def test_rows_are_the_old_dense_build(testbed, dataset, with_energy):
    names = TESTBEDS[testbed]
    p = testbed_problem(testbed, dataset=dataset, with_energy=with_energy)
    assert len(p.time_rows) == len(set(names))
    assert [names[i] for i in np.unique(p.row_of, return_index=True)[1]] \
        == list(dict.fromkeys(names))
    time_cost, energy_cost = old_dense(names, dataset, 500)
    assert (bits(p.time_cost) == bits(time_cost)).all()
    if with_energy:
        assert (bits(p.energy_cost) == bits(energy_cost)).all()
    else:
        assert p.energy_rows is None


def test_testbeds_two_and_three_carry_four_rows():
    for testbed, users in ((2, 6), (3, 10)):
        p = testbed_problem(testbed)
        assert (p.n_users, len(p.time_rows), len(p.energy_rows)) == (
            users, 4, 4,
        )


@pytest.mark.parametrize("name", available_schedulers())
@pytest.mark.parametrize(
    "testbed, shard_size, total",
    [(1, 500, None), (2, 500, None), (3, 500, None), (3, 50, 3000)],
)
def test_schedulers_answer_as_on_the_dense_problem(
    name, testbed, shard_size, total
):
    names = TESTBEDS[testbed]
    rng = np.random.default_rng(testbed)
    user_classes = [
        tuple(int(c) for c in rng.choice(10, size=3, replace=False))
        for _ in names
    ]
    p = testbed_problem(
        testbed,
        shard_size=shard_size,
        total_samples=total,
        user_classes=user_classes,
    )
    time_cost, energy_cost = old_dense(names, "mnist", shard_size, total)
    dense = SchedulingProblem(
        time_cost=time_cost,
        energy_cost=energy_cost,
        total_shards=p.total_shards,
        shard_size=p.shard_size,
        user_classes=user_classes,
        alpha=p.alpha,
        beta=p.beta,
        weights=p.weights,
        rng=0,
    )
    a = get_scheduler(name).schedule(p)
    b = get_scheduler(name).schedule(dense)
    assert a.shard_counts.tolist() == b.shard_counts.tolist()
    assert bits(a.predicted_makespan_s) == bits(b.predicted_makespan_s)
    assert bits(a.predicted_energy_j) == bits(b.predicted_energy_j)


def test_unnamed_models_of_different_sizes_get_their_own_curves():
    """Both models are ``Sequential``'s default ``"model"`` on one input
    shape; only their training FLOPs differ."""
    clear_cost_cache()
    shape = (1, 12, 12)
    small = Sequential([Flatten(), Dense(144, 10)], input_shape=shape)
    large = Sequential(
        [Flatten(), Dense(144, 512), ReLU(), Dense(512, 10)],
        input_shape=shape,
    )
    assert small.name == large.name
    (t_small,) = cached_time_curves(["pixel2"], small)
    (t_large,) = cached_time_curves(["pixel2"], large)
    (e_small,) = cached_energy_curves(["pixel2"], small)
    (e_large,) = cached_energy_curves(["pixel2"], large)
    assert t_small(5000.0) < t_large(5000.0)
    assert e_small(5000.0) < e_large(5000.0)
    p_small = testbed_problem(["pixel2"], model=small, total_samples=6000)
    p_large = testbed_problem(["pixel2"], model=large, total_samples=6000)
    assert (p_small.time_rows < p_large.time_rows).all()
    assert (p_small.energy_rows < p_large.energy_rows).all()
