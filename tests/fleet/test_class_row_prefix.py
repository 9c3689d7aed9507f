"""A round's class rows are a prefix of the widest built.

Column ``k`` of a fleet's class rows does not depend on the width, so
``fleet_class_matrices`` runs the ``curve_rows`` broadcast only for a
width wider than any built for its key and serves every other width as
a prefix view of the widest rows. These tests count the broadcasts
through a wrapped ``costs.curve_rows``.
"""

import numpy as np
import pytest

import repro.sched.costs as costs
from repro.fleet import FleetRunner, UniformSampler
from repro.sched.costs import clear_cost_cache, fleet_class_matrices

from .conftest import toy_fleet


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cost_cache()
    yield
    clear_cost_cache()


@pytest.fixture
def builds(monkeypatch):
    """The width of every ``curve_rows`` broadcast, in order."""
    widths = []
    inner = costs.curve_rows

    def counted(curves, n_shards, shard_size):
        widths.append(n_shards)
        return inner(curves, n_shards, shard_size)

    monkeypatch.setattr(costs, "curve_rows", counted)
    return widths


def test_a_narrower_width_builds_nothing(fleet, builds):
    wide = fleet_class_matrices(fleet, 40, 150)
    narrow = fleet_class_matrices(fleet, 17, 150)
    back = fleet_class_matrices(fleet, 40, 150)
    assert builds == [40]
    for w, n, b in zip(wide, narrow, back):
        assert np.shares_memory(w, n)
        assert n.shape[1] == 17 and not n.flags.writeable
        assert b.tobytes() == w.tobytes()
    fleet_class_matrices(fleet, 41, 150)
    assert builds == [40, 41]


def test_a_round_builds_only_a_new_widest_width(builds):
    fleet = toy_fleet(200, seed=4)
    runner = FleetRunner(
        fleet,
        scheduler="fed_lbap",
        sampler=UniformSampler(9),
        cohort_size=32,
        shard_size=100,
    )
    widths = []
    for _ in range(40):
        runner.run_round()
        (entry,) = costs._FLEET_MATRIX_CACHE.values()
        widths.append(entry[0].shape[1])
    widest = [w for i, w in enumerate(widths) if w > max(widths[:i], default=0)]
    assert builds == widest
    assert len(builds) < len(set(widths))
