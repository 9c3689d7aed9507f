"""A registered ``data_size`` is one a round can plan over.

The int64 column alone admitted 2**63 - 1 samples a device: one device
there got a 201 and then asked the next round for ~10**17 shards, and
two near it wrapped the cohort's int64 sum negative, so the round ran
on a one-shard budget. Registration now keeps the live devices' data
within ``shard_size * MAX_ROUND_SHARDS`` samples.
"""

import asyncio

import numpy as np

from repro.serve import coordinator as coordinator_mod
from repro.serve.app import MAX_ROUND_SHARDS
from repro.sched.costs import _total

from .conftest import make_app, register_n

REGISTER = ("POST", "/v1/devices/register")


def _register(app, device_id, data_size):
    return app.handle_request(
        *REGISTER, {"device_id": device_id, "data_size": data_size}
    )


def _round_budget(app, monkeypatch):
    """Run one round through the routes; return it and its shard budget."""
    budgets = []
    real = coordinator_mod.fleet_problem

    def recording(*args, **kwargs):
        problem = real(*args, **kwargs)
        budgets.append(problem.total_shards)
        return problem

    monkeypatch.setattr(coordinator_mod, "fleet_problem", recording)
    status, _ = app.handle_request("POST", "/v1/rounds", {})
    assert status == 202
    (job,) = asyncio.run(app.run_pending())
    return job, budgets


def test_one_device_at_the_column_bound_is_refused(monkeypatch):
    app, _ = make_app()
    status, payload = _register(app, "huge", 2**63 - 6)
    assert status == 400 and "per-device limit" in payload["error"]
    assert app.registry.live_count() == 0 and app.registry.live_samples == 0
    register_n(app, 2)  # the refused device claimed no row
    job, budgets = _round_budget(app, monkeypatch)
    assert job.status == "completed", job.error
    assert budgets == [12]  # 2 × 600 samples in shards of 100


def test_two_devices_near_the_bound_cannot_wrap_the_budget(monkeypatch):
    app, _ = make_app()
    register_n(app, 2)
    for device_id in ("near-1", "near-2"):
        status, _ = _register(app, device_id, 2**62 + 1)
        assert status == 400
    job, budgets = _round_budget(app, monkeypatch)
    assert job.status == "completed", job.error
    assert budgets == [12]


def test_the_live_devices_share_one_round_budget():
    app, _ = make_app()
    limit = 100 * MAX_ROUND_SHARDS
    assert app.registry.max_live_samples == limit
    status, _ = _register(app, "big", limit - 500)
    assert status == 201
    status, payload = _register(app, "late", 600)
    assert status == 503 and "more than a round can hold" in payload["error"]
    assert app.registry.live_samples == limit - 500
    status, _ = _register(app, "fits", 500)
    assert status == 201 and app.registry.live_samples == limit
    # a death gives its samples back
    app.handle_request("DELETE", "/v1/devices/big", None)
    assert app.registry.live_samples == 500
    status, _ = _register(app, "late", 600)
    assert status == 201


def test_a_cohort_total_is_summed_without_wrapping():
    sizes = np.array([2**62 + 1, 2**62 + 1, 7], dtype=np.int64)
    assert _total(sizes) == 2**63 + 9
    assert _total(np.array([600, 600], dtype=np.int64)) == 1200
