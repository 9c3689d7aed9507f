"""FleetRunner: vectorized rounds, narration thresholds, ledgers."""

import numpy as np
import pytest

from repro.engine.events import EventBus
from repro.fleet import (
    FleetRoundRecord,
    FleetRunner,
    UniformSampler,
    make_sampler,
)
from repro.obs import ObsRecorder
from repro.obs.prof import PROFILER
from repro.sched.costs import fleet_problem

from .conftest import toy_fleet


def make_runner(n=32, detail_threshold=256, **kwargs):
    return FleetRunner(
        toy_fleet(n=n),
        detail_threshold=detail_threshold,
        **kwargs,
    )


class TestConstruction:
    def test_sampler_and_cohort_size_go_together(self):
        with pytest.raises(ValueError, match="together"):
            make_runner(sampler=UniformSampler(0))
        with pytest.raises(ValueError, match="together"):
            make_runner(cohort_size=8)

    def test_validation(self):
        with pytest.raises(ValueError, match="cohort_size"):
            make_runner(sampler=UniformSampler(0), cohort_size=0)
        with pytest.raises(ValueError, match="shard_size"):
            make_runner(shard_size=0)
        with pytest.raises(ValueError, match="local_epochs"):
            make_runner(local_epochs=0)
        with pytest.raises(ValueError, match="detail_threshold"):
            make_runner(detail_threshold=-1)
        with pytest.raises(ValueError, match="rounds"):
            make_runner().run(0)

    def test_scheduler_resolved_by_name(self):
        runner = make_runner(scheduler="fed_lbap")
        assert runner.scheduler.name == "fed_lbap"


class TestRounds:
    def test_round_record_fields(self):
        runner = make_runner(n=16)
        record = runner.run_round()
        assert isinstance(record, FleetRoundRecord)
        assert record.round_idx == 1
        assert record.scheduler == "proportional"
        assert record.eligible_count == 16
        assert record.cohort_size == 16
        assert 0 < record.active_count <= 16
        assert record.makespan_s > 0
        assert record.energy_j > 0
        assert 0 < record.mean_battery_soc <= 1
        assert runner.records == [record]
        # virtual state only, no host timing: same fleet, same seed,
        # == records
        fleet = toy_fleet(n=16)
        first, second = (
            FleetRunner(
                fleet.copy(), sampler=UniformSampler(0), cohort_size=8
            ).run(3)
            for _ in range(2)
        )
        assert first == second

    def test_profiling_does_not_perturb_the_round(self):
        bare = make_runner(n=16).run(3)
        PROFILER.reset()
        PROFILER.enable()
        try:
            profiled = make_runner(n=16).run(3)
            assert PROFILER.total_count() > 0
        finally:
            PROFILER.disable()
            PROFILER.reset()
        assert profiled == bare

    def test_clock_advances_by_makespan_plus_aggregation(self):
        runner = make_runner(n=8, aggregation_s=2.0)
        r1 = runner.run_round()
        assert runner.clock_s == pytest.approx(r1.makespan_s + 2.0)
        r2 = runner.run_round()
        assert runner.clock_s == pytest.approx(
            r1.makespan_s + r2.makespan_s + 4.0
        )

    def test_batteries_drain_across_rounds(self):
        runner = make_runner(n=16)
        before = runner.fleet.battery_j.sum()
        runner.run(3)
        assert runner.fleet.battery_j.sum() < before

    def test_min_soc_gates_eligibility(self):
        runner = make_runner(n=16, min_soc=0.5)
        eligible = runner.eligible_indices()
        assert (runner.fleet.soc(eligible) >= 0.5).all()

    def test_no_eligible_devices_raises(self):
        runner = make_runner(n=8)
        runner.fleet.alive[:] = False
        with pytest.raises(RuntimeError, match="no eligible"):
            runner.run_round()

    def test_devices_without_data_sit_out(self):
        runner = make_runner(n=8)
        runner.fleet.data_size[:4] = 0
        assert runner.eligible_indices().tolist() == [4, 5, 6, 7]

    def test_cohort_sampling_bounds_the_instance(self):
        runner = make_runner(
            n=64,
            sampler=make_sampler("pareto", seed=1),
            cohort_size=8,
        )
        record = runner.run_round()
        assert record.eligible_count == 64
        assert record.cohort_size == 8
        assert record.active_count <= 8

    def test_deterministic_given_seeded_sampler(self):
        def run():
            runner = make_runner(
                n=64,
                sampler=UniformSampler(7),
                cohort_size=8,
            )
            return [r.energy_j for r in runner.run(3)]

        assert run() == run()


def _retired_idle_bystanders(runner, idx, round_s):
    """``FleetRunner._idle_bystanders`` as it was before the store's
    mask form of ``idle``, kept verbatim as the reference: an index
    array of everyone else, one repeated scalar, the index form."""
    bystander = runner.fleet.alive.copy()
    bystander[idx] = False
    others = np.flatnonzero(bystander)
    if others.size:
        runner.fleet.idle(
            others, np.full(others.shape, round_s, dtype=np.float64)
        )


class TestBystanderDrain:
    def test_whole_column_drain_is_the_retired_index_sweep(self):
        # a fleet starting at 0.05–1 % charge: most rows hit empty
        fleet = toy_fleet(n=2_000, seed=4, soc_range=(0.0005, 0.01))
        runners = [
            FleetRunner(
                fleet.copy(),
                sampler=UniformSampler(9),
                cohort_size=64,
                aggregation_s=1.5,
            )
            for _ in range(2)
        ]
        changed, reference = runners
        reference._idle_bystanders = (
            lambda idx, round_s: _retired_idle_bystanders(
                reference, idx, round_s
            )
        )
        churn = np.random.default_rng(1)
        for round_idx in range(30):
            kill = churn.choice(fleet.n, 40, replace=False)
            revive = churn.choice(fleet.n, 20, replace=False)
            for runner in runners:
                if round_idx % 3 == 1:
                    runner.fleet.alive[kill] = False
                if round_idx % 5 == 2:
                    runner.fleet.alive[revive] = True
                runner.run_round()
        assert (
            changed.fleet.battery_j.tobytes()
            == reference.fleet.battery_j.tobytes()
        )
        assert changed.records == reference.records
        assert changed.clock_s == reference.clock_s
        # the case is worth its name: the floor bound, rows died
        assert (changed.fleet.battery_j == 0.0).sum() > 1_000
        assert not changed.fleet.alive.all()

    def test_profiler_reports_idle_once_per_round_from_each_site(self):
        runner = make_runner(n=16, aggregation_s=1.0)
        PROFILER.reset()
        PROFILER.enable()
        try:
            # the core's barrier waits alone: one round driven by hand
            cohort = runner.eligible_indices()
            problem = fleet_problem(
                runner.fleet,
                cohort=cohort,
                shard_size=runner.core.shard_size,
            )
            assignment = runner.core.plan(
                runner.scheduler, problem, 1, 0.0
            )
            runner.core.close(
                runner.core.dispatch(cohort, assignment, 1, 0.0)
            )
            assert PROFILER.stats[("idle",)].count == 1
            # the runner adds its bystanders' drain
            runner.run(3)
            assert PROFILER.stats[("idle",)].count == 1 + 2 * 3
        finally:
            PROFILER.disable()
            PROFILER.reset()


class TestNarration:
    def test_detailed_rounds_emit_per_client_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        runner = make_runner(n=8, detail_threshold=256, bus=bus)
        record = runner.run_round()
        kinds = [e.kind for e in seen]
        assert kinds[0] == "schedule_computed"
        assert kinds.count("client_dispatched") == record.active_count
        assert kinds.count("client_finished") == record.active_count
        assert kinds[-1] == "round_completed"
        assert "cohort_accounted" not in kinds

    def test_large_cohorts_emit_one_aggregate_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        runner = make_runner(n=32, detail_threshold=4, bus=bus)
        record = runner.run_round()
        kinds = [e.kind for e in seen]
        # never both: per-client narration would double-count energy
        assert kinds == ["cohort_accounted", "round_completed"]
        (agg,) = [e for e in seen if e.kind == "cohort_accounted"]
        assert agg.cohort_size == record.active_count
        assert agg.eligible_count == 32
        assert agg.energy_j == pytest.approx(record.energy_j)
        assert agg.mean_battery_soc == pytest.approx(
            record.mean_battery_soc
        )

    def test_ledger_totals_match_records_in_both_modes(self):
        for threshold in (0, 10_000):
            rec = ObsRecorder()
            bus = EventBus()
            bus.subscribe(rec)
            runner = make_runner(
                n=24, detail_threshold=threshold, bus=bus
            )
            records = runner.run(2)
            assert rec.energy.total_energy_j == pytest.approx(
                sum(r.energy_j for r in records)
            )
