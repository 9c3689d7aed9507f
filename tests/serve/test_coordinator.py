"""Round execution under churn: re-plan before dispatch, k-of-n after.

Every test drives the async coordinator with ``asyncio.run`` and a
synchronous ``churn_hook`` — no sleeps, no real time anywhere.
"""

import asyncio

import numpy as np
import pytest

from repro.engine.events import (
    ClientDropped,
    RoundCompleted,
    ScheduleComputed,
)
from repro.serve import PlanRecord, RoundJob
from repro.serve.coordinator import JOB_STATUSES, ROUND_PHASES

from .conftest import make_app, register_n


def run_round(app, **job_kwargs):
    job = app.submit_round(**job_kwargs)
    return asyncio.run(app.run_job(job))


def test_phase_and_status_vocabularies():
    assert ROUND_PHASES == ("planned", "dispatched")
    assert set(JOB_STATUSES) == {
        "pending",
        "running",
        "completed",
        "cancelled",
        "failed",
    }


def test_quiet_round_completes_without_replans():
    app, _ = make_app()
    register_n(app, 8)
    events = []
    app.bus.subscribe(events.append)
    job = run_round(app)
    assert job.status == "completed"
    assert job.replans == 0
    assert job.model_version == 1
    assert job.record["participant_count"] == 8
    assert job.record["dropped_count"] == 0
    done = [e for e in events if isinstance(e, RoundCompleted)]
    assert len(done) == 1
    # one plan, zero dead devices in it
    assert len(app.coordinator.plan_log) == 1
    plan = app.coordinator.plan_log[0]
    assert isinstance(plan, PlanRecord)
    assert plan.dead_scheduled == 0


def test_loss_before_dispatch_forces_replan():
    app, _ = make_app()
    ids = register_n(app, 8)
    events = []
    app.bus.subscribe(events.append)
    killed = []

    def hook(phase, job):
        if phase == "planned" and not killed:
            victim = app.coordinator.plan_log[-1].scheduled[0]
            device_id = ids[victim]
            app.registry.deregister(device_id)
            killed.append(victim)

    app.coordinator.churn_hook = hook
    job = run_round(app)
    assert job.status == "completed"
    assert job.replans == 1
    # the victim paid nothing and uploaded nothing
    assert job.record["participant_count"] == 7
    assert job.record["dropped_count"] == 0
    # the victim never uploaded: it is not in the model's provenance
    version = app.models.get(job.model_version)
    assert killed[0] not in version.metadata["participants"]
    # the adopted (second) plan covers only live devices
    final = app.coordinator.plan_log[-1]
    assert killed[0] not in final.scheduled
    assert final.dead_scheduled == 0
    # the scheduler genuinely ran twice
    solves = [e for e in events if isinstance(e, ScheduleComputed)]
    assert len(solves) == 2


def test_loss_after_dispatch_drops_k_of_n():
    app, _ = make_app()
    ids = register_n(app, 8)
    events = []
    app.bus.subscribe(events.append)

    def hook(phase, job):
        if phase == "dispatched":
            victim = app.coordinator.plan_log[-1].scheduled[0]
            app.registry.deregister(ids[victim])

    app.coordinator.churn_hook = hook
    job = run_round(app)
    assert job.status == "completed"
    assert job.replans == 0  # too late to re-plan
    assert job.record["participant_count"] == 7
    assert job.record["dropped_count"] == 1
    dropped = [e for e in events if isinstance(e, ClientDropped)]
    assert len(dropped) == 1
    # the drop is provenance on the committed model
    version = app.models.get(job.model_version)
    assert len(version.metadata["dropped"]) == 1
    assert version.metadata["dropped"][0] == dropped[0].client_id


def test_all_dead_after_dispatch_fails_loud():
    app, _ = make_app()
    ids = register_n(app, 4)

    def hook(phase, job):
        if phase == "dispatched":
            for device_id in ids:
                if app.registry.get(device_id).state != "dead":
                    app.registry.deregister(device_id)

    app.coordinator.churn_hook = hook
    job = run_round(app)
    assert job.status == "failed"
    assert "died before upload" in job.error
    # no model was committed for the failed round
    assert app.models.latest().version == 0


def test_replan_storm_hits_the_bound():
    app, _ = make_app(max_replans=2)
    ids = register_n(app, 8)

    def hook(phase, job):
        # kill one scheduled survivor at *every* planned checkpoint
        if phase == "planned":
            for victim in app.coordinator.plan_log[-1].scheduled:
                if app.registry.get(ids[victim]).state != "dead":
                    app.registry.deregister(ids[victim])
                    return

    app.coordinator.churn_hook = hook
    job = run_round(app)
    assert job.status == "failed"
    assert "re-plans" in job.error
    assert job.replans == 2


def test_cancel_between_plan_and_dispatch():
    app, _ = make_app()
    register_n(app, 8)

    def hook(phase, job):
        if phase == "planned":
            job.cancel_requested = True

    app.coordinator.churn_hook = hook
    job = run_round(app)
    assert job.status == "cancelled"
    assert app.models.latest().version == 0
    # batteries were never drained: dispatch never happened
    assert bool(
        (
            app.fleet.battery_j[app.registry.live_indices()]
            == app.fleet.capacity_j[app.registry.live_indices()]
        ).all()
    )


def test_no_eligible_devices_fails():
    app, _ = make_app()
    job = run_round(app)
    assert job.status == "failed"
    assert "no eligible devices" in job.error


def test_cohort_size_caps_participation():
    app, _ = make_app(cohort_size=4)
    register_n(app, 8)
    job = run_round(app)
    assert job.status == "completed"
    assert job.record["participant_count"] == 4


def test_rounds_advance_the_virtual_clock_only():
    app, clock = make_app()
    register_n(app, 8)
    before_service = clock()
    job = run_round(app)
    assert job.status == "completed"
    assert clock() == before_service  # service clock untouched
    assert app.coordinator.clock_s > 0.0  # virtual clock advanced
    assert app.coordinator.clock_s == pytest.approx(
        job.record["makespan_s"]
    )


def test_dispatch_drains_batteries_even_for_the_dead():
    app, _ = make_app()
    ids = register_n(app, 4)
    full = app.fleet.capacity_j.copy()

    def hook(phase, job):
        if phase == "dispatched":
            app.registry.deregister(ids[0])

    app.coordinator.churn_hook = hook
    job = run_round(app)
    assert job.status == "completed"
    victim = app.registry.records[ids[0]].client_id
    # the device died *after* compute: its energy is spent
    assert app.fleet.battery_j[victim] < full[victim]


def test_rerunning_a_finished_job_is_an_error():
    app, _ = make_app()
    register_n(app, 4)
    job = run_round(app)
    assert job.status == "completed"
    with pytest.raises(RuntimeError, match="already"):
        asyncio.run(app.run_job(job))


def test_run_pending_drains_in_submission_order():
    app, _ = make_app()
    register_n(app, 8)
    app.submit_round()
    app.submit_round()

    done = asyncio.run(app.run_pending())
    assert [j.round_id for j in done] == [1, 2]
    assert all(j.status == "completed" for j in done)
    # one model version per completed round, lineage intact
    assert [j.model_version for j in done] == [1, 2]
    assert app.models.lineage(2) == [2, 1, 0]


def test_scheduled_sets_are_numpy_free():
    app, _ = make_app()
    register_n(app, 4)
    run_round(app)
    plan = app.coordinator.plan_log[0]
    assert all(type(i) is int for i in plan.scheduled)
    assert isinstance(plan.scheduled, tuple)
    assert isinstance(np.asarray(plan.scheduled).sum(), np.integer)


def test_detail_round_reads_charge_and_eligibility_once():
    """Regression: the round used to read ``soc`` once per finished
    client and to build a second full-fleet eligibility mask that only
    the aggregate event (not emitted in detail mode) would carry."""
    app, _ = make_app(n=20)
    register_n(app, 20)
    calls = {"soc": 0, "eligible_mask": 0}

    def counted(name):
        inner = getattr(app.fleet, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        setattr(app.fleet, name, wrapper)

    for name in calls:
        counted(name)
    job = run_round(app)
    assert job.status == "completed"
    assert job.record["participant_count"] == 20
    assert calls["soc"] <= 1
    assert calls["eligible_mask"] == 1
