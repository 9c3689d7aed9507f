"""A columnar round never builds a cohort x shards matrix.

``fleet_problem`` hands the scheduler the per-class rows and the
cohort's ``class_id``; these tests pin that whole rounds run with the
dense view never gathered, and that the class-row cache holds one
entry however the shard budget moves.
"""

import numpy as np
import pytest

import repro.fleet.round as round_module
import repro.sched.costs as costs
from repro.fleet import FleetRunner, UniformSampler
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


@pytest.fixture
def solved(monkeypatch):
    """Every problem a round hands its scheduler, in order."""
    problems = []
    inner = round_module.timed_schedule

    def recording(scheduler, problem):
        problems.append(problem)
        return inner(scheduler, problem)

    monkeypatch.setattr(round_module, "timed_schedule", recording)
    return problems


@pytest.mark.parametrize(
    "name", ["fed_lbap", "olar", "proportional", "equal"]
)
def test_rounds_never_gather_the_dense_view(name, solved):
    fleet = toy_fleet(64, seed=2)
    runner = FleetRunner(
        fleet,
        scheduler=name,
        sampler=UniformSampler(5),
        cohort_size=24,
        shard_size=100,
    )
    runner.run(3)
    assert len(solved) == 3
    for problem in solved:
        assert problem.n_users == 24
        assert problem.time_rows.shape[0] == len(fleet.classes)
        assert problem._dense == {}


def test_problem_carries_class_rows_and_class_ids(fleet):
    cohort = np.array([1, 4, 4, 11], dtype=np.int64)
    p = fleet_problem(fleet, cohort=cohort, shard_size=200, total_shards=9)
    time_rows, energy_rows = fleet_class_matrices(fleet, 9, 200)
    assert np.array_equal(p.time_rows, time_rows)
    assert np.array_equal(p.energy_rows, energy_rows)
    assert p.row_of.tolist() == fleet.class_id[cohort].tolist()
    assert p._dense == {}
    # the view is there for whoever asks
    assert np.array_equal(p.time_cost, time_rows[fleet.class_id[cohort]])


def test_fifty_rounds_leave_one_cache_entry():
    fleet = toy_fleet(200, seed=4)
    runner = FleetRunner(
        fleet,
        scheduler="proportional",
        sampler=UniformSampler(9),
        cohort_size=32,
        shard_size=100,
    )
    widths = set()
    for _ in range(50):
        runner.run_round()
        (entry,) = costs._FLEET_MATRIX_CACHE.values()
        widths.add(entry[0].shape[1])
    # the default budget is the data the cohort holds: it moved
    assert len(widths) > 1
    assert len(costs._FLEET_MATRIX_CACHE) == 1


def test_prefix_of_a_wider_grid_equals_a_fresh_build(fleet):
    wide_time, wide_energy = fleet_class_matrices(fleet, 40, 150)
    narrow_time, narrow_energy = fleet_class_matrices(fleet, 17, 150)
    assert narrow_time.tobytes() == wide_time[:, :17].tobytes()
    assert narrow_energy.tobytes() == wide_energy[:, :17].tobytes()
    # a second shard size is a second entry, not a replacement
    fleet_class_matrices(fleet, 17, 300)
    assert len(costs._FLEET_MATRIX_CACHE) == 2


def test_cached_rows_are_frozen(fleet):
    time_rows, energy_rows = fleet_class_matrices(fleet, 8, 100)
    with pytest.raises(ValueError, match="read-only"):
        time_rows[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        energy_rows[0, 0] = 0.0
