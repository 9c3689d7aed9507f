"""Adapter fidelity: registry path vs. direct calls, capacity repair."""

import numpy as np
import pytest

from repro.core.baselines import equal_schedule, random_schedule
from repro.core.lbap import fed_lbap
from repro.core.minavg import fed_minavg
from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.adapters import repair_to_capacities

from .conftest import synthetic_problem


class TestBitIdentity:
    """The adapters call the wrapped functions verbatim: same inputs,
    bit-identical schedules (acceptance criterion of the subsystem)."""

    def test_fed_lbap_adapter_matches_direct_call(self):
        for seed in range(5):
            p = synthetic_problem(seed=seed, n_users=5, total_shards=9)
            direct, bottleneck = fed_lbap(
                p.time_cost, p.total_shards, p.shard_size
            )
            a = get_scheduler("fed_lbap").schedule(p)
            np.testing.assert_array_equal(
                a.shard_counts, direct.shard_counts
            )
            assert a.meta["bottleneck"] == bottleneck
            assert a.schedule.algorithm == "fed-lbap"

    def test_fed_lbap_adapter_matches_with_capacities(self):
        p = synthetic_problem(
            seed=1, n_users=4, total_shards=8,
            capacities=[3, 3, 3, 3],
        )
        direct, _ = fed_lbap(
            p.time_cost, p.total_shards, p.shard_size,
            capacities=np.asarray(p.capacities),
        )
        a = get_scheduler("fed_lbap").schedule(p)
        np.testing.assert_array_equal(
            a.shard_counts, direct.shard_counts
        )

    def test_fed_minavg_adapter_matches_direct_call(self):
        rng = np.random.default_rng(4)
        n, total, d = 4, 9, 100
        a_coef = rng.uniform(0.5, 2.0, n)
        b_coef = rng.uniform(0.001, 0.02, n)
        curves = [
            (lambda x, ai=ai, bi=bi: ai + bi * x)
            for ai, bi in zip(a_coef, b_coef)
        ]
        classes = [
            tuple(int(c) for c in rng.choice(10, 3, replace=False))
            for _ in range(n)
        ]
        k = np.arange(1, total + 1)
        time_cost = (
            a_coef[:, None] + b_coef[:, None] * (k * d)[None, :]
        )
        p = SchedulingProblem(
            time_cost=time_cost,
            total_shards=total,
            shard_size=d,
            user_classes=classes,
            alpha=50.0,
            beta=1.0,
        )
        direct = fed_minavg(
            curves, classes, total, d, 10, 50.0, beta=1.0,
            capacities=p.effective_capacities(),
        )
        adapted = get_scheduler("fed_minavg").schedule(p)
        np.testing.assert_array_equal(
            adapted.shard_counts, direct.shard_counts
        )
        assert adapted.schedule.algorithm == "fed-minavg"

    def test_equal_adapter_matches_direct_call(self, problem):
        direct = equal_schedule(
            problem.n_users, problem.total_shards, problem.shard_size
        )
        a = get_scheduler("equal").schedule(problem)
        np.testing.assert_array_equal(
            a.shard_counts, direct.shard_counts
        )

    def test_random_adapter_matches_direct_call_with_same_seed(self):
        p = synthetic_problem(seed=9)
        direct = random_schedule(
            p.n_users, p.total_shards, p.shard_size,
            np.random.default_rng(9),
        )
        a = get_scheduler("random").schedule(p)
        np.testing.assert_array_equal(
            a.shard_counts, direct.shard_counts
        )


class TestRandomReproducibility:
    def test_same_seed_same_schedule(self, problem):
        a = get_scheduler("random").schedule(problem)
        b = get_scheduler("random").schedule(problem)
        np.testing.assert_array_equal(a.shard_counts, b.shard_counts)

    def test_global_state_is_irrelevant(self, problem):
        a = get_scheduler("random").schedule(problem)
        # deliberate global-state pollution: the scheduler must ignore it
        np.random.seed(12345)  # noqa: NPY002
        np.random.random(100)  # noqa: NPY002
        b = get_scheduler("random").schedule(problem)
        np.testing.assert_array_equal(a.shard_counts, b.shard_counts)

    def test_scheduler_seed_used_without_problem_rng(self):
        p = synthetic_problem()
        p.rng = None
        a = get_scheduler("random", seed=11).schedule(p)
        b = get_scheduler("random", seed=11).schedule(p)
        c = get_scheduler("random", seed=12).schedule(p)
        np.testing.assert_array_equal(a.shard_counts, b.shard_counts)
        assert not np.array_equal(a.shard_counts, c.shard_counts)

    def test_random_schedule_accepts_int_seed(self):
        a = random_schedule(5, 40, 10, 21)
        b = random_schedule(5, 40, 10, np.random.default_rng(21))
        np.testing.assert_array_equal(a.shard_counts, b.shard_counts)


class TestCapacityRepair:
    def test_noop_when_feasible(self):
        counts = np.array([3, 2, 1])
        caps = np.array([5, 5, 5])
        cost = np.tile(np.arange(1.0, 7.0), (3, 1))
        out = repair_to_capacities(counts, caps, cost)
        np.testing.assert_array_equal(out, counts)

    def test_overflow_moves_to_cheapest_slack(self):
        counts = np.array([4, 0, 0])
        caps = np.array([2, 4, 4])
        cost = np.vstack(
            [
                np.arange(1.0, 5.0),
                np.arange(1.0, 5.0) * 2,  # cheaper next shard
                np.arange(1.0, 5.0) * 5,
            ]
        )
        out = repair_to_capacities(counts, caps, cost)
        np.testing.assert_array_equal(out, [2, 2, 0])
        assert out.sum() == counts.sum()

    def test_impossible_repair_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            repair_to_capacities(
                np.array([4]), np.array([2]), np.ones((1, 4))
            )

    def test_baselines_respect_capacities_via_repair(self):
        p = synthetic_problem(
            seed=6, n_users=4, total_shards=10,
            capacities=[1, 4, 4, 4],
        )
        for name in ("equal", "random", "proportional"):
            a = get_scheduler(name).schedule(p)
            assert (
                a.shard_counts <= p.effective_capacities()
            ).all(), name
            assert a.schedule.total_shards == p.total_shards
