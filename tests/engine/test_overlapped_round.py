"""A sync round's children train beside its dispatch and exit beside its tail.

A round without a deadline knows its aggregators once it is planned,
and its dispatch draws nothing from the engine generator, so
``run_sync_round`` starts the train step (generator walk, shares,
forks) before the dispatch, collects the results where the round
trains, and reaps the children in one ``finally`` after the evaluation.
A deadline round starts after the dispatch, as its aggregators depend
on the dispatch times.

Whole rounds are pinned here to the retired one-by-one loop
(``_retired_train_step``), taken where the round trains: the global
weights, every accuracy, the engine generator's end state and the
event stream, as JSON lines, byte for byte. Then the overlap itself,
seen through ``os.waitid`` with ``WNOWAIT`` (which reaps nothing): a
child exists while the devices are simulated and while the model is
evaluated, and none after the round; and the failure paths: a device
that raises mid-dispatch leaves no child, a child that fails during the
dispatch fails the round naming its client.
"""

import io
import os
import time

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.data.partition import iid_partition
from repro.device.registry import make_device
from repro.engine import JsonlSink, ModelAggregated, RoundEngine
from repro.federated.dropout import DropoutPolicy
from repro.federated.server import ParameterServer
from repro.sched.binding import EngineSchedulerBinding

from . import test_parallel_train as parallel
from .test_parallel_train import (
    DATASET,
    _failing_train,
    _model,
    _no_children_left,
    _RetiredStep,
    _rng_state,
)

#: fork at any size on the cores each test sets; returns the fork log
split = parallel.split

PHONES = ["pixel2", "nexus6p", "mate10", "nexus6", "pixel2"]


def _engine(
    devices=True,
    binding=False,
    epochs=1,
    eval_every=1,
    dropout=None,
    model_dropout=False,
):
    engine = RoundEngine(
        DATASET,
        _model(model_dropout),
        iid_partition(DATASET, len(PHONES), np.random.default_rng(0)),
        devices=[
            make_device(p, jitter=0.02, seed=i) for i, p in enumerate(PHONES)
        ]
        if devices
        else None,
        dropout=dropout,
        batch_size=8,
        local_epochs=epochs,
        eval_every=eval_every,
        seed=11,
    )
    engine.bind_server(ParameterServer(engine.model))
    if binding:
        engine.bind_scheduler(EngineSchedulerBinding("proportional", shard_size=8))
    return engine


def _capture(engine):
    """The engine's event stream as JSON lines."""
    stream = io.StringIO()
    engine.bus.subscribe(JsonlSink(stream))
    return stream


ROUNDS = {
    "capped allocations": dict(binding=True),
    "two local epochs": dict(epochs=2),
    "no devices": dict(devices=False),
    "evaluated every other round": dict(eval_every=2),
    "deadline dropout": dict(dropout=DropoutPolicy(deadline_factor=1.05)),
    "a dropout layer": dict(model_dropout=True),
}


def run_against_the_retired_loop(rounds=3, **config):
    """The same rounds on an engine as it is and on one whose train step
    is the retired loop; their weights, accuracies, generators and
    event streams must be equal, and the reference must have trained
    exactly the clients each round aggregated. Returns the engine."""
    engine, reference = (_engine(**config) for _ in range(2))
    trained, aggregated = [], []
    reference._start_training = lambda aggregators, w: _RetiredStep(
        reference, aggregators, w, trained
    )
    reference.bus.subscribe(
        lambda event: isinstance(event, ModelAggregated)
        and aggregated.append(list(event.participants))
    )
    got, want = _capture(engine), _capture(reference)
    for _ in range(rounds):
        engine.run_sync_round()
        reference.run_sync_round()
    assert trained == aggregated and len(aggregated) == rounds
    assert engine.history.accuracies() == reference.history.accuracies()
    assert np.array_equal(
        engine.server.model.get_weights(), reference.server.model.get_weights()
    )
    assert _rng_state(engine) == _rng_state(reference)
    assert got.getvalue() == want.getvalue()
    return engine


@pytest.mark.parametrize("procs", [1, 2])
@pytest.mark.parametrize("config", list(ROUNDS), ids=list(ROUNDS))
def test_whole_rounds_equal_the_retired_loop(split, procs, config):
    forks = split(procs)
    run_against_the_retired_loop(**ROUNDS[config])
    splits = procs > 1 and config != "a dropout layer"
    assert len(forks) == (3 if splits else 0)
    _no_children_left()


def test_evaluation_is_skipped_between_evaluated_rounds(split):
    """The ``eval_every`` configuration above really skips rounds."""
    split(2)
    engine = _engine(eval_every=2)
    for _ in range(3):
        engine.run_sync_round()
    assert [r.accuracy is None for r in engine.history.records] == [
        True,
        False,
        True,
    ]


def _has_child():
    """Whether this process has a child, exited or not, reaping none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def _has_exited_child():
    """Whether a child of this process has exited, reaping none."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    return os.waitid(os.P_ALL, 0, flags) is not None


def _before_each_workload(engine, hook):
    """Call ``hook()`` as each of the engine's devices starts a workload."""
    for device in engine.devices:

        def run_workload(*args, run=device.run_workload, **kwargs):
            hook()
            return run(*args, **kwargs)

        device.run_workload = run_workload


def _watch(engine, monkeypatch, seen):
    """Log ``_has_child()`` in every device workload and evaluation."""
    _before_each_workload(
        engine, lambda: seen.append(("dispatch", _has_child()))
    )
    evaluate = engine_module.evaluate_accuracy

    def evaluate_accuracy(*args, **kwargs):
        seen.append(("evaluate", _has_child()))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(engine_module, "evaluate_accuracy", evaluate_accuracy)


def test_the_child_trains_beside_the_dispatch_and_exits_beside_the_tail(
    split, monkeypatch
):
    forks = split(2)
    engine = _engine()
    seen = []
    _watch(engine, monkeypatch, seen)
    for rounds in (1, 2):
        engine.run_sync_round()
        assert len(forks) == rounds
        _no_children_left()
    assert [phase for phase, _ in seen] == (
        ["dispatch"] * len(PHONES) + ["evaluate"]
    ) * 2
    assert all(child for _, child in seen)


@pytest.mark.parametrize(
    "dropout, forked", [(None, 1), (DropoutPolicy(deadline_factor=1.05), 0)]
)
def test_only_a_round_without_a_deadline_forks_before_its_dispatch(
    split, monkeypatch, dropout, forked
):
    forks = split(2)
    engine = _engine(dropout=dropout)
    seen = []
    _before_each_workload(engine, lambda: seen.append(len(forks)))
    engine.run_sync_round()
    assert seen == [forked] * len(PHONES)
    assert len(forks) == 1
    _no_children_left()


def test_a_device_that_raises_mid_dispatch_leaves_no_child(split):
    forks = split(2)
    engine = _engine()
    device = engine.devices[2]

    def broken(*args, **kwargs):
        raise ValueError("battery sensor lost")

    device.run_workload = broken
    with pytest.raises(ValueError, match="battery sensor lost"):
        engine.run_sync_round()
    assert len(forks) == 1
    _no_children_left()


def test_a_child_that_fails_during_the_dispatch_fails_the_round(
    split, monkeypatch
):
    split(2)
    # equal clients: the child's share is positions [1, 3]
    assert engine_module._shares([48] * len(PHONES), 2)[1] == [1, 3]
    _failing_train(monkeypatch, in_child=True, action=parallel._raise)
    engine = _engine()

    def wait_for_the_child_to_exit():
        deadline = time.monotonic() + 60.0
        while not _has_exited_child() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _has_exited_child()

    _before_each_workload(engine, wait_for_the_child_to_exit)
    with pytest.raises(
        RuntimeError, match=r"client 1 failed .*ValueError: diverged"
    ):
        engine.run_sync_round()
    _no_children_left()
