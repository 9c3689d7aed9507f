"""A sync round's local SGD split over forked children, against the loop.

``RoundEngine._train_aggregators`` walks the engine generator once in
client order, keeping each client's start state, then trains the
clients in shares: the caller the first, a child forked for the round
each other one. Here the size threshold is forced to 0 and the core
count to 1, 2 or 3, and every result is pinned bit for bit to the loop
it replaced, which lives below as ``_retired_train_step``: the weights
each client uploads, its sample count and losses, the global model
after whole rounds, and the engine generator's end state. Then the
cases that must stay in the caller (one core, a ``Dropout`` layer, a
live second thread, a failed fork) and the failure paths: a child that
raises or dies makes the round raise, and a caller that raises leaves
no child behind.

``_run_pair`` patches ``_train_aggregators``, which ``run_sync_round``
no longer calls, so its whole-round cases compare the round with
itself; their siblings under ``_run_against_the_retired_step`` replace
``_start_training`` instead, for the configurations
``test_overlapped_round`` does not already run against the retired
loop.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.engine as engine_module
from repro.data.partition import UserData, iid_partition
from repro.data.synthetic import SyntheticConfig, make_dataset
from repro.device.registry import make_device
from repro.engine import RoundEngine
from repro.federated.dropout import DropoutPolicy
from repro.federated.server import ParameterServer
from repro.models import Conv2D, Dense, Dropout, Flatten, ReLU, Sequential
from repro.sched.binding import EngineSchedulerBinding

DATASET = make_dataset(
    SyntheticConfig(
        name="tiny",
        shape=(1, 8, 8),
        num_classes=10,
        train_size=240,
        test_size=40,
        noise=1.0,
        seed=7,
    )
)


def _model(dropout=False):
    """A conv net small enough to fork for every example."""
    rng = np.random.default_rng(1)
    layers = [
        Conv2D(1, 2, 3, rng=rng),
        ReLU(),
        Flatten(),
        Dense(72, 10, rng=rng),
    ]
    if dropout:
        layers.insert(2, Dropout(0.3, rng=np.random.default_rng(2)))
    return Sequential(layers, name="tiny_conv", input_shape=(1, 8, 8))


def _users(sizes):
    """Users holding ``sizes`` consecutive rows of the training set."""
    edges = np.cumsum([0, *sizes])
    return [
        UserData(j, np.arange(lo, hi))
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
    ]


def _retired_train_step(engine, aggregators, start_weights):
    """The round's train step before the split: each aggregator in
    turn, on the engine's generator."""
    return [
        engine.train_client(j, start_weights, epochs=engine.local_epochs)
        for j in aggregators
    ]


class _RetiredStep:
    """The train step before the split, run where the round collects:
    each aggregator in turn on the engine's generator, logged to
    ``trained``; nothing to reap."""

    def __init__(self, engine, aggregators, start_weights, trained):
        self.args = (engine, aggregators, start_weights)
        self.trained = trained

    def collect(self):
        self.trained.append(list(self.args[1]))
        return _retired_train_step(*self.args)

    def reap(self):
        pass


@pytest.fixture
def split(monkeypatch):
    """Fork at any size on ``procs`` cores; returns the fork count."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(engine_module, "_FORK_FLOPS", 0.0)
    monkeypatch.setattr(os, "fork", counting_fork)

    def cores(procs):
        monkeypatch.setattr(engine_module, "_TRAIN_PROCS", procs)
        return forks

    return cores


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.weights, w.weights)
        assert g.n_samples == w.n_samples
        assert g.losses == w.losses


def _rng_state(engine):
    return engine._rng.bit_generator.state


@st.composite
def steps(draw):
    """Users (one may hold no data), an optional capped allocation, an
    aggregator subset in client order, epochs, cores and a seed."""
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    caps = draw(
        st.none()
        | st.lists(st.integers(0, 50), min_size=n, max_size=n).map(
            lambda c: np.array(c, dtype=np.int64)
        )
    )
    aggregators = [
        j for j in range(n) if draw(st.booleans()) or j == n - 1
    ]
    epochs = draw(st.integers(1, 2))
    procs = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return sizes, caps, aggregators, epochs, procs, seed


def _engine(sizes, epochs, seed, dropout=False):
    return RoundEngine(
        DATASET,
        _model(dropout),
        _users(sizes),
        batch_size=8,
        local_epochs=epochs,
        seed=seed,
    )


@settings(
    max_examples=30,
    deadline=None,
    # the fixture's patches hold for every example; each sets its cores
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=steps())
def test_the_split_step_is_the_loop_bit_for_bit(split, case):
    sizes, caps, aggregators, epochs, procs, seed = case
    forks = split(procs)
    start = _model().get_weights() * 0.5
    engine, reference = (_engine(sizes, epochs, seed) for _ in range(2))
    engine._round_samples = reference._round_samples = caps
    before = len(forks)
    got = engine._train_aggregators(aggregators, start)
    want = _retired_train_step(reference, aggregators, start)
    _assert_same_results(got, want)
    assert _rng_state(engine) == _rng_state(reference)
    busy = sum(1 for j in aggregators if len(engine._train_indices(j)))
    assert len(forks) - before == max(0, min(procs, busy) - 1)
    _no_children_left()


def _simulation(dropout=None, binding=False, epochs=1, model_dropout=False):
    phones = ["pixel2", "nexus6p", "mate10", "nexus6", "pixel2"]
    engine = RoundEngine(
        DATASET,
        _model(model_dropout),
        iid_partition(DATASET, len(phones), np.random.default_rng(0)),
        devices=[
            make_device(p, jitter=0.02, seed=i) for i, p in enumerate(phones)
        ],
        dropout=dropout,
        batch_size=8,
        local_epochs=epochs,
        seed=11,
    )
    engine.bind_server(ParameterServer(engine.model))
    if binding:
        engine.bind_scheduler(EngineSchedulerBinding("proportional", shard_size=8))
    return engine


def _run_pair(make, rounds=3):
    """The same rounds on the engine as it is and on one whose train step
    is the retired loop."""
    engine, reference = make(), make()
    reference._train_aggregators = lambda aggregators, w: _retired_train_step(
        reference, aggregators, w
    )
    for _ in range(rounds):
        got = engine.run_sync_round()
        want = reference.run_sync_round()
        assert got.participant_count == want.participant_count
        assert got.accuracy == want.accuracy
    assert np.array_equal(
        engine.server.model.get_weights(), reference.server.model.get_weights()
    )
    assert _rng_state(engine) == _rng_state(reference)
    return engine, reference


ROUNDS = {
    "capped allocations": dict(binding=True),
    "two local epochs": dict(epochs=2),
    "deadline dropout": dict(dropout=DropoutPolicy(deadline_factor=1.05)),
}


@pytest.mark.parametrize("procs", [1, 2])
@pytest.mark.parametrize("config", list(ROUNDS), ids=list(ROUNDS))
def test_whole_rounds_equal_the_loop(split, procs, config):
    forks = split(procs)
    engine, _ = _run_pair(lambda: _simulation(**ROUNDS[config]))
    assert (len(forks) > 0) == (procs > 1)
    _no_children_left()


def test_the_deadline_leaves_a_subset_to_train(split):
    """The dropout configuration above really trains a strict subset."""
    split(2)
    engine, _ = _run_pair(lambda: _simulation(**ROUNDS["deadline dropout"]))
    counts = [r.participant_count for r in engine.history.records]
    assert min(counts) < len(engine.users)


def test_a_dropout_layer_keeps_the_round_in_the_caller(split):
    forks = split(2)
    engine, reference = _run_pair(lambda: _simulation(model_dropout=True))
    assert forks == []
    drop = [type(layer) for layer in engine._scratch.layers].index(Dropout)
    assert (
        engine._scratch.layers[drop]._rng.bit_generator.state
        == reference._scratch.layers[drop]._rng.bit_generator.state
    )


def test_a_live_second_thread_keeps_the_round_in_the_caller(split):
    forks = split(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _run_pair(_simulation, rounds=2)
    finally:
        stop.set()
        thread.join()
    assert forks == []


def _run_against_the_retired_step(make, rounds=3):
    """The same rounds on the engine as it is and on one whose started
    train step (``_start_training``, which ``run_sync_round`` calls) is
    the retired loop."""
    engine, reference = make(), make()
    reference._start_training = lambda aggregators, w: _RetiredStep(
        reference, aggregators, w, []
    )
    for _ in range(rounds):
        got = engine.run_sync_round()
        want = reference.run_sync_round()
        assert got.participant_count == want.participant_count
        assert got.accuracy == want.accuracy
    assert np.array_equal(
        engine.server.model.get_weights(), reference.server.model.get_weights()
    )
    assert _rng_state(engine) == _rng_state(reference)
    return engine, reference


def test_a_dropout_layer_keeps_its_generator_against_the_retired_step(split):
    forks = split(2)
    engine, reference = _run_against_the_retired_step(
        lambda: _simulation(model_dropout=True)
    )
    assert forks == []
    drop = [type(layer) for layer in engine._scratch.layers].index(Dropout)
    assert (
        engine._scratch.layers[drop]._rng.bit_generator.state
        == reference._scratch.layers[drop]._rng.bit_generator.state
    )


def test_a_live_second_thread_equals_the_retired_step(split):
    forks = split(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _run_against_the_retired_step(_simulation, rounds=2)
    finally:
        stop.set()
        thread.join()
    assert forks == []


def test_the_deadline_subset_equals_the_retired_step(split):
    split(2)
    engine, _ = _run_against_the_retired_step(
        lambda: _simulation(**ROUNDS["deadline dropout"])
    )
    counts = [r.participant_count for r in engine.history.records]
    assert min(counts) < len(engine.users)


@pytest.mark.parametrize("sizes", [[30, 30], [50, 15, 15]])
@pytest.mark.parametrize("epochs", [1, 2])
def test_the_threshold_counts_the_work_taken_off_the_caller(
    split, monkeypatch, sizes, epochs
):
    """30 samples a round leave the caller in both rounds, whatever the
    round's total."""
    forks = split(2)
    engine = _engine(sizes, epochs, 0)
    moved = 30 * epochs * engine._flops
    monkeypatch.setattr(engine_module, "_FORK_FLOPS", moved * (1 + 1e-9))
    engine._train_aggregators(range(len(sizes)), _model().get_weights())
    assert forks == []
    monkeypatch.setattr(engine_module, "_FORK_FLOPS", moved)
    engine._train_aggregators(range(len(sizes)), _model().get_weights())
    assert forks == [1]


def test_a_failed_fork_trains_that_share_in_the_caller(split, monkeypatch):
    split(3)

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    start = _model().get_weights()
    engine, reference = (_engine([30, 20, 10, 25], 2, 5) for _ in range(2))
    got = engine._train_aggregators([0, 1, 2, 3], start)
    want = _retired_train_step(reference, [0, 1, 2, 3], start)
    _assert_same_results(got, want)
    assert _rng_state(engine) == _rng_state(reference)
    _no_children_left()


def _failing_train(monkeypatch, in_child, action, samples=None):
    """``train_local`` that runs ``action`` in the caller or in a child,
    for every client or the one training ``samples`` samples."""
    parent = os.getpid()
    real = engine_module.train_local

    def train_local(model, x, y, **kwargs):
        hit = samples is None or len(x) == samples
        if hit and (os.getpid() != parent) == in_child:
            action()
        return real(model, x, y, **kwargs)

    monkeypatch.setattr(engine_module, "train_local", train_local)


def _raise():
    raise ValueError("diverged")


def _child_clients(sizes):
    return engine_module._shares(sizes, 2)[1]


def test_a_child_that_raises_fails_the_round_naming_its_client(
    split, monkeypatch
):
    split(2)
    sizes = [30, 20, 10, 5]
    assert _child_clients(sizes) == [1, 2]
    # the child's second client raises, after its first trained
    _failing_train(monkeypatch, in_child=True, action=_raise, samples=10)
    engine = _engine(sizes, 1, 0)
    with pytest.raises(
        RuntimeError, match=r"client 2 failed .*ValueError: diverged"
    ):
        engine._train_aggregators([0, 1, 2, 3], _model().get_weights())
    _no_children_left()


def test_a_child_that_dies_fails_the_round(split, monkeypatch):
    split(2)
    sizes = [30, 20, 10]
    clients = _child_clients(sizes)
    _failing_train(monkeypatch, in_child=True, action=lambda: os._exit(3))
    engine = _engine(sizes, 1, 0)
    with pytest.raises(RuntimeError, match=rf"{clients}.*status 3"):
        engine._train_aggregators([0, 1, 2], _model().get_weights())
    _no_children_left()


def test_a_caller_that_raises_leaves_no_child(split, monkeypatch):
    forks = split(3)
    _failing_train(monkeypatch, in_child=False, action=_raise)
    engine = _engine([30, 20, 10], 1, 0)
    with pytest.raises(ValueError, match="diverged"):
        engine._train_aggregators([0, 1, 2], _model().get_weights())
    assert len(forks) == 2
    _no_children_left()


@given(
    sizes=st.lists(st.integers(0, 500), max_size=12),
    procs=st.integers(1, 4),
)
def test_shares_cover_each_position_once_longest_first(sizes, procs):
    shares = engine_module._shares(sizes, procs)
    busy = [i for i, n in enumerate(sizes) if n]
    assert len(shares) == max(1, min(procs, len(busy)))
    assert sorted(i for share in shares for i in share) == list(
        range(len(sizes))
    )
    assert all(share == sorted(share) for share in shares)
    assert all(sizes[i] == 0 or i in busy for i in shares[0])
    for share in shares[1:]:
        assert share and all(sizes[i] for i in share)
    if shares[1:]:
        # longest first onto the lightest: no share exceeds another by
        # more than its smallest client
        loads = [sum(sizes[i] for i in share) for share in shares]
        for share, load in zip(shares, loads):
            smallest = min((sizes[i] for i in share if sizes[i]), default=0)
            assert load - smallest <= min(loads)
