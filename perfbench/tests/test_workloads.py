"""A small-size pass of every workload, built from its spec class, both
untraced and traced — and the program is left untouched afterwards."""

import dataclasses
import time

import pytest

import repro.engine.engine as engine_module
import repro.fleet.runner as runner_module
import repro.sched.binding as binding_module
import repro.serve.coordinator as coordinator_module
from perfbench import harness
from perfbench.spec import load_spec
from perfbench.trace import Tracer
from perfbench.workloads import (
    WORKLOADS,
    EngineSpec,
    FleetSpec,
    ServeSpec,
)

SPEC = load_spec()
ROUNDS = harness.MIN_ROUNDS

SMALL = {
    "fleet-lbap": FleetSpec(
        "fleet-lbap", n=3_000, cohort=48, scheduler="fed_lbap", rounds=ROUNDS
    ),
    "fleet-narrate": FleetSpec(
        "fleet-narrate", n=2_000, cohort=32, scheduler="proportional",
        rounds=ROUNDS, narrate=True,
    ),
    "fleet-1m": FleetSpec(
        "fleet-1m", n=20_000, cohort=32, scheduler="proportional",
        rounds=ROUNDS,
    ),
    "engine-train": EngineSpec(
        "engine-train", rounds=ROUNDS, users=5, train_size=400,
        test_size=50, accuracy_floor=0.3,
    ),
    "serve-churn": ServeSpec(
        "serve-churn", rounds=ROUNDS, population=48, lost_planned=4,
        lost_dispatched=2,
    ),
}

#: module globals a traced run rebinds, and must give back
REBOUND = [
    (runner_module, "fleet_problem"),
    (coordinator_module, "fleet_problem"),
    (coordinator_module, "restrict_problem"),
    (coordinator_module, "get_scheduler"),
    (binding_module, "restrict_problem"),
    (binding_module, "problem_from_engine"),
    (engine_module, "train_local"),
    (engine_module, "evaluate_accuracy"),
]


def test_small_specs_cover_the_declared_workloads():
    assert sorted(SMALL) == sorted(SPEC.workloads)
    for name, spec in SMALL.items():
        assert type(spec) is type(WORKLOADS[name])
        # same shape as the measured spec, only smaller
        changed = {
            f.name for f in dataclasses.fields(spec)
            if getattr(spec, f.name) != getattr(WORKLOADS[name], f.name)
        }
        assert changed, name


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_pass(name):
    originals = [getattr(mod, attr) for mod, attr in REBOUND]
    live = SMALL[name].live(seed=3)
    doc = harness.measure(live, ROUNDS, time.perf_counter())
    assert doc["failed"] == 0 and doc["faults"] == []
    assert doc["attempted"] >= ROUNDS
    assert doc["rounds"] == ROUNDS and "per_layer" not in doc
    for m in SPEC.end_to_end:
        assert doc[m.name] > 0.0, m.name
    assert doc["highest_percentile"] == 90.0
    assert len(doc["raw"]["round_ms"]) == ROUNDS
    assert len(doc["raw"]["yardstick_ms"]) == ROUNDS // live.block_rounds + 1
    assert (doc["final_accuracy"] is not None) == (name == "engine-train")
    assert (doc["req_cost_per_k"] is not None) == (name == "serve-churn")
    # an untraced run installs nothing
    assert [getattr(mod, attr) for mod, attr in REBOUND] == originals


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_agrees_and_leaves_no_wrapper(name):
    originals = [getattr(mod, attr) for mod, attr in REBOUND]
    untraced = harness.measure(
        SMALL[name].live(seed=3), ROUNDS, time.perf_counter()
    )
    tracer = Tracer()
    live = SMALL[name].live(seed=3, tracer=tracer)
    doc = harness.measure(
        live, ROUNDS, time.perf_counter(),
        untraced_p50=untraced["round_cost_p50"],
    )
    assert doc["failed"] == 0 and doc["faults"] == []
    # tracing observes; it must not change what the program computes
    assert doc["result_digest"] == untraced["result_digest"]
    assert doc["virtual_makespan_s"] == untraced["virtual_makespan_s"]
    # exactly the declared per-layer metrics
    SPEC.with_units(doc["per_layer"], SPEC.per_layer)
    layers = doc["per_layer"]
    assert layers["trace.self_time_gap_pct"] < 1.0
    assert layers["sched.solve.calls"] == (2.0 if name == "serve-churn" else 1.0)
    round_layer = live.round_span.rsplit(".", 1)[0]
    assert layers[f"{round_layer}.self_ms"] > 0.0
    # every wrapper is gone: module globals are the originals again and
    # no instance still shadows a method
    assert [getattr(mod, attr) for mod, attr in REBOUND] == originals
    for obj, attr, _ in live.patches():
        if not isinstance(obj, type(engine_module)):
            assert attr not in vars(obj), (obj, attr)


def test_the_oracle_catches_a_suboptimal_fed_lbap():
    import numpy as np

    from perfbench.checks import assignment_faults
    from repro.sched import SchedulingProblem, get_scheduler

    cost = np.array([[1.0, 2.0, 3.0], [1.5, 3.0, 4.5]])
    problem = SchedulingProblem(time_cost=cost, total_shards=3)
    good = get_scheduler("fed_lbap").schedule(problem)
    assert assignment_faults(problem, good, oracle=True) == []
    worse = get_scheduler("fed_lbap").schedule(problem)
    worse.schedule.shard_counts[:] = [1, 2]  # makespan 3.0, optimum 2.0
    worse.predicted_makespan_s = problem.predicted_makespan([1, 2])
    faults = assignment_faults(problem, worse, oracle=True)
    assert any("not the optimum" in f for f in faults)
    short = get_scheduler("fed_lbap").schedule(problem)
    short.schedule.shard_counts[:] = [1, 1]
    assert "allocated 2 of 3 shards" in assignment_faults(problem, short)[0]
