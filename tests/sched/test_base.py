"""SchedulingProblem validation and Assignment scoring."""

import numpy as np
import pytest

from repro.sched import (
    Assignment,
    SchedulingProblem,
    available_schedulers,
    get_scheduler,
)
from repro.core.schedule import Schedule

from .conftest import synthetic_problem


def mat(rows):
    return np.asarray(rows, dtype=np.float64)


class TestValidation:
    def test_empty_user_list(self):
        with pytest.raises(ValueError, match="empty user list"):
            SchedulingProblem(
                time_cost=np.empty((0, 3)), total_shards=5
            )

    def test_non_positive_total(self):
        with pytest.raises(ValueError, match="total_shards"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]), total_shards=0
            )
        with pytest.raises(ValueError, match="total_shards"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]), total_shards=-3
            )

    def test_nan_cost_entries(self):
        with pytest.raises(ValueError, match="NaN"):
            SchedulingProblem(
                time_cost=mat([[1.0, np.nan]]), total_shards=1
            )

    def test_negative_cost_entries(self):
        with pytest.raises(ValueError, match="negative"):
            SchedulingProblem(
                time_cost=mat([[-0.5, 1.0]]), total_shards=1
            )

    def test_energy_matrix_validated_too(self):
        with pytest.raises(ValueError, match="energy_cost"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]),
                energy_cost=mat([[np.inf, 1.0]]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="shape"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0]]),
                energy_cost=mat([[1.0]]),
                total_shards=1,
            )

    def test_capacity_infeasibility(self):
        with pytest.raises(ValueError, match="infeasible"):
            SchedulingProblem(
                time_cost=mat([[1.0, 2.0], [1.0, 2.0]]),
                total_shards=5,
                capacities=[2, 2],
            )

    def test_malformed_weights(self):
        """Found out at construction, not inside ``proportional``'s
        capacity repair as a NumPy broadcast error."""
        cost = np.cumsum(np.ones((3, 6)), axis=1)
        with pytest.raises(ValueError, match="one weight per user"):
            SchedulingProblem(
                time_cost=cost, total_shards=6, weights=[1, 2]
            )
        for bad in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0], [1.0, np.nan, 2.0],
                    [1.0, np.inf, 2.0]):
            with pytest.raises(ValueError, match="finite and positive"):
                SchedulingProblem(
                    time_cost=cost, total_shards=6, weights=bad
                )
        p = SchedulingProblem(
            time_cost=cost, total_shards=6, weights=[1, 2, 3]
        )
        assert p.weights == [1, 2, 3]

    @pytest.mark.parametrize("name", available_schedulers())
    def test_wrong_length_capacities(self, name):
        """Found out at construction and in ``with_capacities``, in one
        message — not broadcast to every user (length 1, which
        ``proportional`` then solved under) or failed as a NumPy
        broadcast error (any other length)."""
        n, s = 5, 8
        rows = np.cumsum(np.ones((2, s)), axis=1) * mat([[1.0], [2.0]])
        row_of = np.array([0, 1, 0, 1, 1])
        forms = {
            "dense": dict(time_cost=rows[row_of], energy_cost=rows[row_of]),
            "class": dict(time_rows=rows, energy_rows=rows, row_of=row_of),
        }
        words = "1-D integer array with one entry per user"
        for form in forms.values():
            shared = dict(total_shards=6, shard_size=10, rng=0, **form)
            good = SchedulingProblem(**shared)
            for length in (1, 2, n + 2):
                bad = np.full(length, 3, dtype=np.int64)
                with pytest.raises(ValueError, match=words):
                    get_scheduler(name).schedule(
                        SchedulingProblem(capacities=bad, **shared)
                    )
                with pytest.raises(ValueError, match=words):
                    get_scheduler(name).schedule(good.with_capacities(bad))
            for bad in (np.full((n, 1), 3), np.full(n, 3.0), [[3] * n]):
                with pytest.raises(ValueError, match=words):
                    SchedulingProblem(capacities=bad, **shared)
            # the right shape, as an array or a list, still solves
            for caps in (np.full(n, 3), [3] * n):
                capped = good.with_capacities(caps)
                assignment = get_scheduler(name).schedule(capped)
                assert assignment.schedule.total_shards == 6
                assert (assignment.shard_counts <= 3).all()

    def test_effective_capacities_clip_to_slots(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 2.0], [1.0, 2.0]]),
            total_shards=2,
            capacities=[100, 1],
        )
        np.testing.assert_array_equal(
            p.effective_capacities(), [2, 1]
        )


class TestRng:
    def test_seed_materialises_generator(self):
        p = synthetic_problem(rng=None)
        p.rng = 42
        a = p.generator().integers(0, 1000, 5)
        b = np.random.default_rng(42).integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(7)
        p = synthetic_problem()
        p.rng = gen
        assert p.generator() is gen

    def test_fallback_seed(self):
        p = synthetic_problem()
        p.rng = None
        a = p.generator(fallback_seed=3).integers(0, 100, 4)
        b = np.random.default_rng(3).integers(0, 100, 4)
        np.testing.assert_array_equal(a, b)


class TestScoring:
    def test_predicted_makespan_is_bottleneck(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 4.0], [2.0, 9.0]]), total_shards=2
        )
        assert p.predicted_makespan([2, 0]) == 4.0
        assert p.predicted_makespan([1, 1]) == 2.0
        assert p.predicted_makespan([0, 0]) == 0.0

    def test_predicted_energy_sums_active_users(self):
        p = SchedulingProblem(
            time_cost=mat([[1.0, 2.0], [1.0, 2.0]]),
            energy_cost=mat([[3.0, 5.0], [2.0, 7.0]]),
            total_shards=2,
        )
        assert p.predicted_energy([1, 1]) == 5.0
        assert p.predicted_energy([2, 0]) == 5.0

    def test_scoring_matches_the_per_user_loop_bit_for_bit(self):
        """The gather replaced a Python loop over active users; the
        energy total must keep that loop's left-to-right rounding
        (recorded ``predicted_energy_j`` values depend on it)."""
        rng = np.random.default_rng(7)
        n, s = 300, 40
        time_cost = np.cumsum(rng.uniform(0.01, 1.0, (n, s)), axis=1)
        energy_cost = np.cumsum(rng.uniform(0.01, 9.0, (n, s)), axis=1)
        p = SchedulingProblem(
            time_cost=time_cost, energy_cost=energy_cost, total_shards=s
        )
        counts = rng.integers(0, s + 1, n)
        active = [j for j in range(n) if counts[j] > 0]
        joules = 0.0
        for j in active:
            joules = joules + energy_cost[j, counts[j] - 1]
        assert p.predicted_energy(counts) == joules
        # pairwise summation rounds differently on this instance
        assert joules != float(
            np.sum(energy_cost[active, counts[active] - 1])
        )
        assert p.predicted_makespan(counts) == max(
            time_cost[j, counts[j] - 1] for j in active
        )
        assert p.predicted_energy(np.zeros(n, dtype=np.int64)) == 0.0

    def test_predicted_energy_none_without_matrix(self):
        p = synthetic_problem(with_energy=False)
        assert p.predicted_energy([1] * p.n_users) is None

    def test_from_schedule_scores_against_problem(self, problem):
        counts = np.zeros(problem.n_users, dtype=np.int64)
        counts[0] = problem.total_shards
        sched = Schedule(counts, problem.shard_size, algorithm="x")
        a = Assignment.from_schedule(problem, sched, "x")
        assert a.scheduler == "x"
        assert a.predicted_makespan_s == pytest.approx(
            problem.time_cost[0, problem.total_shards - 1]
        )
        assert a.predicted_energy_j == pytest.approx(
            problem.energy_cost[0, problem.total_shards - 1]
        )
        np.testing.assert_array_equal(a.shard_counts, counts)
