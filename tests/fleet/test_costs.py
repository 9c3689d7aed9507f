"""Vectorized fleet cost-matrix generation and its per-class cache."""

import numpy as np
import pytest

from repro.sched.costs import (
    clear_cost_cache,
    fleet_class_matrices,
    fleet_problem,
)

from .conftest import toy_fleet


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cost_cache()
    yield
    clear_cost_cache()


class TestFleetClassMatrices:
    def test_shape_and_affine_values(self, fleet):
        time_cols, energy_cols = fleet_class_matrices(fleet, 10, 500)
        assert time_cols.shape == (len(fleet.classes), 10)
        assert energy_cols.shape == (len(fleet.classes), 10)
        # column k is the cost of k+1 shards = (k+1)*shard_size samples
        fast = fleet.classes[0]
        assert time_cols[0, 0] == pytest.approx(
            fast.time_base_s + fast.time_per_sample_s * 500
        )
        assert energy_cols[0, 3] == pytest.approx(
            fast.energy_base_j + fast.energy_per_sample_j * 2000
        )

    def test_rows_are_non_decreasing(self, fleet):
        time_cols, energy_cols = fleet_class_matrices(fleet, 64, 100)
        assert (np.diff(time_cols, axis=1) >= 0).all()
        assert (np.diff(energy_cols, axis=1) >= 0).all()

    def test_cache_hits_on_same_signature(self, fleet):
        a = fleet_class_matrices(fleet, 10, 500)
        b = fleet_class_matrices(fleet.copy(), 10, 500)
        # battery state differs between calls but the class signature
        # (the cache key) does not: the very same arrays come back
        assert a[0] is b[0] and a[1] is b[1]
        c = fleet_class_matrices(fleet, 11, 500)
        assert c[0] is not a[0]

    def test_validation(self, fleet):
        with pytest.raises(ValueError, match="positive"):
            fleet_class_matrices(fleet, 0, 500)
        with pytest.raises(ValueError, match="positive"):
            fleet_class_matrices(fleet, 10, 0)


class TestFleetProblem:
    def test_whole_fleet_instance(self, fleet):
        p = fleet_problem(fleet, shard_size=100)
        assert p.n_users == fleet.n
        assert p.total_shards == max(
            1, int(fleet.data_size.sum()) // 100
        )
        assert p.shard_size == 100
        assert p.energy_cost is not None
        assert p.meta["fleet_n"] == fleet.n
        assert p.meta["cohort_size"] == fleet.n
        assert p.meta["classes"] == ("fast", "slow")
        assert float(p.meta["build_ms"]) >= 0.0

    def test_cohort_rows_are_class_rows(self, fleet):
        cohort = np.array([0, 3, 9], dtype=np.int64)
        p = fleet_problem(fleet, cohort=cohort, shard_size=200,
                          total_shards=12)
        time_cols, _ = fleet_class_matrices(fleet, 12, 200)
        expected = time_cols[fleet.class_id[cohort]]
        assert np.array_equal(p.time_cost, expected)
        assert p.n_users == 3

    def test_weights_follow_class_speed(self, fleet):
        # fast class (smaller slope) must carry the larger weight
        cohort = np.flatnonzero(fleet.class_id == 0)[:1]
        cohort = np.concatenate(
            [cohort, np.flatnonzero(fleet.class_id == 1)[:1]]
        )
        p = fleet_problem(fleet, cohort=cohort, total_shards=4)
        assert p.weights is not None
        assert p.weights[0] > p.weights[1]

    def test_no_energy_option(self, fleet):
        p = fleet_problem(fleet, with_energy=False, total_shards=4)
        assert p.energy_cost is None

    def test_validation(self, fleet):
        with pytest.raises(ValueError, match="cohort"):
            fleet_problem(fleet, cohort=np.array([], dtype=np.int64))

    def test_soc_never_enters_the_instance(self, fleet):
        """Cost matrices are battery-independent by design — draining
        the fleet must not change the instance (only eligibility,
        decided upstream, sees charge)."""
        p1 = fleet_problem(fleet, total_shards=8)
        fleet.battery_j[:] *= 0.1
        p2 = fleet_problem(fleet, total_shards=8)
        assert np.array_equal(p1.time_cost, p2.time_cost)

    def test_weights_are_inverse_class_slopes(self, fleet):
        p = fleet_problem(fleet, shard_size=100)
        slopes = np.array([c.time_per_sample_s for c in fleet.classes])
        np.testing.assert_array_equal(
            p.weights, 1.0 / np.maximum(slopes[fleet.class_id], 1e-12)
        )

    def test_fed_minavg_output_unchanged_by_curve_sharing(self, fleet):
        """Fed-MinAvg reads the raw curves: one closure per class must
        schedule exactly like one closure per cohort row."""
        from repro.core.minavg import fed_minavg
        from repro.sched import get_scheduler

        cohort = np.arange(0, fleet.n, 2)
        p = fleet_problem(fleet, cohort=cohort, shard_size=100)
        through = get_scheduler("fed_minavg").schedule(p)

        def affine(base_s, slope_s):
            return lambda n_samples: base_s + slope_s * n_samples

        per_row = [
            affine(
                fleet.classes[c].time_base_s,
                fleet.classes[c].time_per_sample_s,
            )
            for c in fleet.class_id[cohort].tolist()
        ]
        direct = fed_minavg(
            per_row,
            p.classes_or_default(),
            p.total_shards,
            p.shard_size,
            p.num_classes,
            p.alpha,
            beta=p.beta,
            capacities=p.effective_capacities(),
        )
        np.testing.assert_array_equal(
            through.shard_counts, direct.shard_counts
        )

    def test_schedulable_end_to_end(self, fleet):
        from repro.sched import get_scheduler

        p = fleet_problem(fleet, shard_size=100)
        a = get_scheduler("proportional").schedule(p)
        assert int(np.sum(a.shard_counts)) == p.total_shards
