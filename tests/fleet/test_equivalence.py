"""The two round kernels that survive agree bit for bit.

One :class:`FleetStore` population, run twice: through the paper's
Sec. VII loop (``FederatedSimulation`` over ``as_devices()`` /
``as_links()`` views, planned by an ``EngineSchedulerBinding`` over
``fleet_problem(store, ...)``) and through ``FleetRunner`` /
``RoundCore`` over a copy of the same store. The store's scalar and
vector ops perform the same float64 arithmetic, so per-client payloads,
per-round records and the final ``battery_j`` column compare with exact
``==``, never approx. This is the premise any later merge of the two
kernels needs.

Both sides are handed the same shard budget: the engine restricts the
whole-fleet instance by zeroing capacity, the runner builds a
cohort-only instance whose default budget would follow the cohort.

Known, documented differences (``docs/fleet.md``), none of them tested
as equal here:

* the clocks — the engine advances by the makespan, the runner by
  makespan + ``aggregation_s`` (pinned below as a relation);
* emission order — the engine interleaves dispatch/finish per client,
  the runner emits every dispatch, then every finish;
* ``proportional`` under ``min_soc`` gating — a weight-normalising
  baseline sees different instances (n rows with zeroed capacity vs
  cohort rows only), so it is compared at ``min_soc = 0`` only.
"""

from dataclasses import dataclass
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticConfig, make_dataset
from repro.engine.events import (
    ClientDispatched,
    ClientFinished,
    EngineEvent,
    RoundCompleted,
    ScheduleComputed,
)
from repro.federated.simulation import (
    FederatedSimulation,
    SimulationConfig,
)
from repro.fleet import FleetRunner, FleetStore
from repro.models import logistic
from repro.models.zoo import model_wire_mb
from repro.obs import ObsRecorder
from repro.sched.binding import EngineSchedulerBinding
from repro.sched.costs import fleet_problem

from .conftest import toy_fleet

MAX_N = 50
SHARD_SIZE = 50
#: schedulers whose answer does not depend on the rows planned out
EXACT = ("fed_lbap", "olar")


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(
        SyntheticConfig(
            name="fleet-eq",
            shape=(1, 8, 8),
            num_classes=10,
            train_size=200,
            test_size=80,
            noise=1.0,
            seed=42,
        )
    )


@dataclass
class Pair:
    """Both kernels over copies of one fleet, with their captured
    event streams."""

    sim: FederatedSimulation
    runner: FleetRunner
    engine_store: FleetStore
    runner_store: FleetStore
    engine_events: List[EngineEvent]
    runner_events: List[EngineEvent]


def make_pair(
    dataset, n, seed, scheduler, min_soc=0.0, aggregation_s=0.0
) -> Pair:
    engine_store = toy_fleet(n=n, seed=seed)
    runner_store = engine_store.copy()
    budget = max(1, int(engine_store.data_size.sum()) // SHARD_SIZE)
    model = logistic(input_shape=dataset.input_shape, seed=1)
    sim = FederatedSimulation(
        dataset,
        model,
        iid_partition(dataset, n, np.random.default_rng(seed)),
        devices=engine_store.as_devices(),
        links=engine_store.as_links(),
        config=SimulationConfig(
            lr=0.05, min_soc=min_soc, aggregation_s=aggregation_s
        ),
    )
    sim.engine.bind_scheduler(
        EngineSchedulerBinding(
            scheduler,
            problem=fleet_problem(
                engine_store, shard_size=SHARD_SIZE, total_shards=budget
            ),
        )
    )
    runner = FleetRunner(
        runner_store,
        scheduler,
        shard_size=SHARD_SIZE,
        total_shards=budget,
        min_soc=min_soc,
        aggregation_s=aggregation_s,
        wire_mb=model_wire_mb(model),
    )
    pair = Pair(sim, runner, engine_store, runner_store, [], [])
    sim.events.subscribe(pair.engine_events.append)
    runner.bus.subscribe(pair.runner_events.append)
    return pair


def run_both(pair, rounds, train=False):
    """Run round by round; a round one kernel refuses (every device
    below the floor) the other must refuse too. Returns the number of
    rounds both completed."""
    for done in range(rounds):
        try:
            pair.sim.run_round(train=train)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                pair.runner.run_round()
            return done
        pair.runner.run_round()
    return rounds


def of_kind(events, kind):
    return [e for e in events if isinstance(e, kind)]


def dispatches(events):
    return [
        (e.round_idx, e.client_id, e.n_samples)
        for e in of_kind(events, ClientDispatched)
    ]


def payloads(events):
    return [
        (
            e.round_idx,
            e.client_id,
            e.compute_s,
            e.comm_s,
            e.total_s,
            e.energy_j,
            e.battery_soc,
        )
        for e in of_kind(events, ClientFinished)
    ]


def records(events):
    return [
        (e.round_idx, e.makespan_s, e.mean_time_s, e.participant_count)
        for e in of_kind(events, RoundCompleted)
    ]


def assert_kernels_agree(pair, rounds):
    assert len(records(pair.engine_events)) == rounds
    assert dispatches(pair.engine_events) == dispatches(pair.runner_events)
    assert payloads(pair.engine_events) == payloads(pair.runner_events)
    assert records(pair.engine_events) == records(pair.runner_events)
    assert np.array_equal(
        pair.engine_store.battery_j, pair.runner_store.battery_j
    )


@pytest.mark.parametrize("scheduler", ["proportional", "fed_lbap", "olar"])
def test_ungated_rounds_agree(dataset, scheduler):
    pair = make_pair(dataset, 12, seed=3, scheduler=scheduler)
    assert run_both(pair, 3) == 3
    assert len(payloads(pair.engine_events)) > 0
    assert_kernels_agree(pair, 3)


@pytest.mark.parametrize("scheduler", EXACT)
@pytest.mark.parametrize("min_soc", [0.3, 0.6])
def test_gated_rounds_agree(dataset, scheduler, min_soc):
    pair = make_pair(
        dataset, 12, seed=3, scheduler=scheduler, min_soc=min_soc
    )
    assert run_both(pair, 3) == 3
    gated_out = pair.engine_store.n - pair.runner.records[0].eligible_count
    assert gated_out > 0
    assert_kernels_agree(pair, 3)


def test_every_device_below_the_floor_refuses_in_both(dataset):
    pair = make_pair(dataset, 4, seed=0, scheduler="olar", min_soc=0.99)
    assert run_both(pair, 1) == 0
    assert pair.engine_events == [] and pair.runner_events == []


def test_aggregation_latency_moves_only_the_clocks(dataset):
    """The engine's devices idle out ``aggregation_s`` but its clock
    does not advance by it; the runner's does. Payloads and batteries
    are equal regardless; ``RoundCompleted.time_s`` differs by
    ``round_idx * aggregation_s`` up to float addition order."""
    aggregation_s = 0.5
    pair = make_pair(
        dataset, 12, seed=1, scheduler="fed_lbap",
        aggregation_s=aggregation_s,
    )
    assert run_both(pair, 3) == 3
    assert_kernels_agree(pair, 3)
    engine_clock = runner_clock = 0.0
    for e, r in zip(
        of_kind(pair.engine_events, RoundCompleted),
        of_kind(pair.runner_events, RoundCompleted),
    ):
        # recomputed in each kernel's own order, so exact
        engine_clock += e.makespan_s
        runner_clock = runner_clock + (r.makespan_s + aggregation_s)
        assert e.time_s == engine_clock
        assert r.time_s == runner_clock
        assert r.time_s == pytest.approx(
            e.time_s + e.round_idx * aggregation_s
        )
    assert pair.sim.engine.clock_s == engine_clock
    assert pair.runner.clock_s == runner_clock
    assert runner_clock > engine_clock


class TestBitIdentity:
    def test_training_rounds_bit_identical(self, dataset):
        """A ``FleetStore`` population still trains through the views:
        real SGD moves the model, and the batteries drain exactly as in
        a timing-only run and as under the runner."""
        kwargs = dict(seed=3, scheduler="fed_lbap", min_soc=0.2)
        trained = make_pair(dataset, 12, **kwargs)
        timed = make_pair(dataset, 12, **kwargs)
        before = trained.sim.server.model.get_weights().copy()
        assert run_both(trained, 3, train=True) == 3
        assert run_both(timed, 3, train=False) == 3
        history = trained.sim.history
        assert all(r.accuracy is not None for r in history.records)
        assert not np.array_equal(
            before, trained.sim.server.model.get_weights()
        )
        assert_kernels_agree(trained, 3)
        assert np.array_equal(
            trained.engine_store.battery_j, timed.engine_store.battery_j
        )

    def test_round_records_identical(self, dataset):
        pair = make_pair(
            dataset, 10, seed=1, scheduler="olar", min_soc=0.3
        )
        assert run_both(pair, 2) == 2
        for a, b in zip(pair.sim.history.records, pair.runner.records):
            assert a.round_idx == b.round_idx
            assert a.makespan_s == b.makespan_s
            assert a.participant_count == b.active_count
            assert a.accuracy is None
            # the engine's per-user column, read at the runner's rows
            assert a.makespan_s == a.per_user_time_s.max()
            assert np.count_nonzero(a.per_user_time_s) == b.active_count
        assert records(pair.engine_events) == records(pair.runner_events)

    def test_energy_ledger_totals_identical(self, dataset):
        pair = make_pair(dataset, 8, seed=5, scheduler="fed_lbap")
        rec_a, rec_b = ObsRecorder(), ObsRecorder()
        pair.sim.events.subscribe(rec_a)
        pair.runner.bus.subscribe(rec_b)
        assert run_both(pair, 2) == 2
        assert rec_a.energy.total_energy_j > 0
        assert rec_a.energy.total_energy_j == rec_b.energy.total_energy_j
        assert rec_a.energy.round_energy == rec_b.energy.round_energy
        assert rec_a.energy.by_client() == rec_b.energy.by_client()
        # the runner's own per-round bookkeeping is the same Joules
        assert [j for _, j in rec_a.energy.round_energy] == [
            r.energy_j for r in pair.runner.records
        ]

    def test_scheduled_rounds_produce_identical_schedules(self, dataset):
        """With nobody gated out the two kernels solve the same
        instance: equal ``ScheduleComputed`` events, field for field."""

        def schedules(events):
            out = []
            for e in of_kind(events, ScheduleComputed):
                d = e.to_dict()
                # host wall-time: the one run-dependent field
                d.pop("solve_ms")
                out.append(d)
            return out

        for scheduler in ("proportional", "fed_lbap", "olar"):
            pair = make_pair(dataset, 6, seed=2, scheduler=scheduler)
            assert run_both(pair, 2) == 2
            planned = schedules(pair.engine_events)
            assert len(planned) == 2
            assert planned[0]["scheduler"] == scheduler
            assert planned == schedules(pair.runner_events)

    def test_n50_timing_rounds_bit_identical(self, dataset):
        pair = make_pair(
            dataset, MAX_N, seed=9, scheduler="fed_lbap",
            min_soc=0.25, aggregation_s=1.0,
        )
        assert run_both(pair, 3) == 3
        assert_kernels_agree(pair, 3)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(2, 16),
    scheduler=st.sampled_from(EXACT),
    min_soc=st.sampled_from([0.0, 0.3, 0.6]),
)
# both devices start below 0.3: the round is refused by both kernels
@example(seed=0, n=2, scheduler="olar", min_soc=0.3)
def test_property_paths_agree_for_any_population(
    dataset, seed, n, scheduler, min_soc
):
    pair = make_pair(
        dataset, n, seed=seed, scheduler=scheduler, min_soc=min_soc,
        aggregation_s=0.5,
    )
    assert_kernels_agree(pair, run_both(pair, 2))
