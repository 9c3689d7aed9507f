"""RoundCore: one plan → dispatch → close kernel under both drivers.

The differential tests run the same round through
:class:`~repro.fleet.FleetRunner` (steps back to back) and through
serve's :class:`~repro.serve.TrainingCoordinator` (checkpoints between
them) over copies of one fleet, and compare with exact ``==``.
"""

import asyncio

import numpy as np
import pytest

from repro.engine.events import (
    ClientDispatched,
    ClientFinished,
    EventBus,
    RoundCompleted,
    ScheduleComputed,
)
from repro.fleet import FleetRunner, UniformSampler
from repro.fleet.round import RoundCore
from repro.obs import ObsRecorder, render_prometheus, render_trace_json
from repro.sched import get_scheduler
from repro.sched.costs import fleet_problem
from repro.serve import ManualClock, ServeApp, ServeConfig

from tests.serve.conftest import register_n

from .conftest import toy_fleet

SHARD_SIZE = 100

#: a constructor keyword each driver must reject, and the message
BAD_ROUND_PARAMS = [
    ({"cohort_size": 0}, "cohort_size must be positive"),
    ({"shard_size": 0}, "shard_size must be positive"),
    ({"local_epochs": 0}, "local_epochs must be positive"),
    ({"aggregation_s": -1.0}, "aggregation_s must be non-negative"),
    ({"detail_threshold": -1}, "detail_threshold must be non-negative"),
]


def make_runner(fleet, **kwargs):
    if "cohort_size" in kwargs:
        kwargs.setdefault("sampler", UniformSampler(0))
    kwargs.setdefault("shard_size", SHARD_SIZE)
    return FleetRunner(fleet, **kwargs)


def make_app(fleet, **config):
    config.setdefault("shard_size", SHARD_SIZE)
    return ServeApp(
        ServeConfig(fleet_size=fleet.n, **config),
        now_fn=ManualClock(),
        fleet=fleet,
    )


def serve_pair(n, **config):
    """A serve app with every row registered, and a runner over a copy
    of its fleet taken *after* registration — same population."""
    app = make_app(toy_fleet(n), **config)
    register_n(app, n)
    runner = make_runner(app.fleet.copy(), bus=EventBus(), **config)
    return app, runner


def run_job(app):
    return asyncio.run(app.run_job(app.submit_round()))


def captured(bus, kinds=None):
    seen = []

    def keep(event):
        if kinds is None or isinstance(event, kinds):
            seen.append(event)

    bus.subscribe(keep)
    return seen


def payloads(events):
    out = []
    for e in events:
        d = e.to_dict()
        d.pop("solve_ms", None)  # host wall-time: run-dependent
        out.append(d)
    return out


ROUND_EVENTS = (
    ScheduleComputed,
    ClientDispatched,
    ClientFinished,
    RoundCompleted,
)


@pytest.mark.parametrize("driver", ["runner", "coordinator"])
@pytest.mark.parametrize("bad, message", BAD_ROUND_PARAMS)
def test_both_drivers_reject_bad_round_parameters(driver, bad, message):
    build = make_runner if driver == "runner" else make_app
    with pytest.raises(ValueError, match=message):
        build(toy_fleet(8), **bad)


class TestDriversAgree:
    def test_quiet_serve_round_equals_a_runner_round(self):
        app, runner = serve_pair(12, aggregation_s=0.5)
        serve_events = captured(app.bus, ROUND_EVENTS)
        runner_events = captured(runner.bus, ROUND_EVENTS)
        job = run_job(app)
        record = runner.run_round()
        assert job.status == "completed"
        assert len(serve_events) == 2 * record.active_count + 2
        assert payloads(serve_events) == payloads(runner_events)
        cohort = app.registry.live_indices()
        assert np.array_equal(
            app.fleet.battery_j[cohort], runner.fleet.battery_j[cohort]
        )
        assert app.coordinator.clock_s == runner.clock_s
        assert job.record["makespan_s"] == record.makespan_s
        assert job.record["energy_j"] == record.energy_j

    @pytest.mark.parametrize("threshold", [0, 10_000])
    def test_one_shape_per_round_and_the_ledger_balances(self, threshold):
        app, runner = serve_pair(12, detail_threshold=threshold)
        for bus, drive in (
            (app.bus, lambda: run_job(app).record["energy_j"]),
            (runner.bus, lambda: runner.run_round().energy_j),
        ):
            rec = ObsRecorder()
            bus.subscribe(rec)
            seen = captured(bus)
            joules = [drive(), drive()]
            kinds = {e.kind for e in seen}
            per_client = {"client_dispatched", "client_finished"}
            if threshold == 0:
                assert "cohort_accounted" in kinds
                assert not kinds & (per_client | {"schedule_computed"})
            else:
                assert per_client < kinds
                assert "cohort_accounted" not in kinds
            assert rec.energy.total_energy_j == pytest.approx(sum(joules))
            assert [j for _, j in rec.energy.round_energy] == pytest.approx(
                joules
            )


class TestClose:
    def dispatched(self, n=6, **params):
        fleet = toy_fleet(n)
        params.setdefault("aggregation_s", 0.0)
        core = RoundCore(
            fleet,
            EventBus(),
            cohort_size=None,
            shard_size=SHARD_SIZE,
            min_soc=0.0,
            local_epochs=1,
            wire_mb=1.0,
            detail_threshold=256,
            **params,
        )
        cohort = core.eligible_indices()
        problem = fleet_problem(fleet, cohort=cohort, shard_size=SHARD_SIZE)
        assignment = core.plan(get_scheduler("proportional"), problem, 1, 0.0)
        return core, core.dispatch(cohort, assignment, 1, 0.0)

    def test_zero_survivors_raises(self):
        core, dispatched = self.dispatched()
        core.fleet.alive[:] = False
        with pytest.raises(RuntimeError, match="died before upload"):
            core.close(dispatched)

    def test_one_survivor_sets_the_makespan(self):
        core, dispatched = self.dispatched(aggregation_s=2.0)
        work = dispatched
        # keep the fastest device: the straggler it would have waited
        # for is gone, so the barrier closes at its own finish time
        keep = int(np.argmin(work.total_s))
        core.fleet.alive[:] = False
        core.fleet.alive[work.idx[keep]] = True
        seen = captured(core.bus)
        closed = core.close(dispatched)
        assert closed.makespan_s == work.total_s[keep]
        assert closed.mean_time_s == work.total_s[keep]
        assert closed.completed.tolist() == [work.idx[keep]]
        assert sorted(closed.dropped.tolist()) == sorted(
            np.delete(work.idx, keep).tolist()
        )
        assert closed.end_s == work.total_s[keep] + 2.0
        # every dispatched device paid for its compute, dead or not
        assert closed.energy_j == float(work.energy_j.sum())
        kinds = [e.kind for e in seen]
        assert kinds.count("client_finished") == 1
        assert kinds.count("client_dropped") == work.idx.size - 1
        assert kinds[-1] == "round_completed"
        assert seen[-1].participant_count == 1


def test_fold_is_invariant_to_dispatch_finish_interleaving():
    """The core emits D₁D₂…F₁F₂…; the runner used to interleave
    D₁F₁D₂F₂…. Every fold must be blind to the difference."""
    runner = make_runner(toy_fleet(10), bus=EventBus())
    grouped = captured(runner.bus)
    runner.run(2)
    kinds = [e.kind for e in grouped]
    n = kinds.count("client_dispatched") // 2
    assert kinds[: 2 * n + 2] == (
        ["schedule_computed"]
        + ["client_dispatched"] * n
        + ["client_finished"] * n
        + ["round_completed"]
    )

    interleaved = []
    for start in (0, 2 * n + 2):
        head, *clients, tail = grouped[start : start + 2 * n + 2]
        interleaved.append(head)
        for d, f in zip(clients[:n], clients[n:]):
            assert d.client_id == f.client_id
            interleaved.extend((d, f))
        interleaved.append(tail)
    assert interleaved != grouped
    assert len(interleaved) == len(grouped)

    def folded(events):
        rec = ObsRecorder(trace=True, run_name="fold-order")
        for e in events:
            rec(e)
        return (
            render_prometheus(rec.metrics),
            render_trace_json(rec.finish_spans()),
            rec.energy.by_client(),
            rec.energy.round_energy,
        )

    assert folded(interleaved) == folded(grouped)
