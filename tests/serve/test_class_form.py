"""A serve round — plan, lose a device, re-plan, dispatch — never
builds a cohort x shards matrix: the re-plan's restricted instance
shares the first plan's class rows and nobody gathers the dense view.
"""

import asyncio

import pytest

import repro.fleet.round as round_module

from .conftest import make_app, register_n


@pytest.mark.parametrize(
    "name", ["fed_lbap", "olar", "proportional", "equal"]
)
def test_round_with_a_mid_round_loss_stays_in_class_form(
    name, monkeypatch
):
    problems = []
    inner = round_module.timed_schedule

    def recording(scheduler, problem):
        problems.append(problem)
        return inner(scheduler, problem)

    monkeypatch.setattr(round_module, "timed_schedule", recording)
    app, _ = make_app(scheduler=name)
    ids = register_n(app, 8)
    killed = []

    def hook(phase, job):
        if phase == "planned" and not killed:
            victim = app.coordinator.plan_log[-1].scheduled[0]
            app.registry.deregister(ids[victim])
            killed.append(victim)

    app.coordinator.churn_hook = hook
    job = asyncio.run(app.run_job(app.submit_round()))
    assert job.status == "completed"
    assert job.replans == 1
    first, second = problems
    assert second is not first
    assert second.time_rows is first.time_rows
    assert second.energy_rows is first.energy_rows
    assert second.row_of is first.row_of
    assert second.capacities[killed[0]] == 0
    assert first._dense == {} and second._dense == {}
