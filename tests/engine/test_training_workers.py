"""The resident training workers: forked once, reused, replaced, reaped.

A sync round that splits its local SGD hands every share but the
caller's to a training worker forked by the first round that splits.
Here the size threshold is forced to 0 and the core count to 2 or 3,
and the workers' lifecycle is pinned: one engine forks once over many
rounds; a second engine's round reaps the first engine's workers and
forks its own, never holding more than ``_TRAIN_PROCS - 1``; a worker
killed between rounds fails the next round naming its clients, and the
round after trains on a new one, bit for bit; hyper-parameters changed
between rounds reach the workers; and an interpreter that exits leaves
no worker alive.
"""

import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.engine.engine as engine_module

from . import test_parallel_train as parallel
from .test_overlapped_round import _before_each_workload, _engine, _capture
from .test_parallel_train import (
    _assert_same_results,
    _model,
    _only_workers_left,
    _retired_train_step,
    _RetiredStep,
    _rng_state,
    worker_pids,
)

#: split at any size on the cores each test sets; returns the fork log
split = parallel.split

ROOT = Path(__file__).resolve().parents[2]


def _children():
    """The pids of this process's children, exited or not (from
    ``/proc``, which lists a process's parent in its ``stat``)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # gone meanwhile
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reaped(pid):
    """Whether ``pid`` is no child of this process any more."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_one_engine_forks_its_worker_once(split):
    forks = split(2)
    engine = _engine()
    pids = []
    for _ in range(5):
        engine.run_sync_round()
        pids.append(worker_pids())
    assert len(forks) == 1
    assert pids == [pids[0]] * 5 and len(pids[0]) == 1
    _only_workers_left(1)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_a_second_engine_reaps_the_first_engines_workers(split):
    forks = split(3)
    counts = []
    first, second = _engine(), _engine()
    for engine in (first, second):
        _before_each_workload(engine, lambda: counts.append(len(_children())))
    for _ in range(2):
        first.run_sync_round()
        counts.append(len(_children()))
    old = worker_pids()
    assert len(forks) == 2 and len(old) == 2
    for _ in range(2):
        second.run_sync_round()
        counts.append(len(_children()))
    assert len(forks) == 4
    assert all(_reaped(pid) for pid in old)
    assert not set(old) & set(worker_pids())
    assert max(counts) == engine_module._TRAIN_PROCS - 1 == 2
    _only_workers_left(2)


def test_a_killed_worker_fails_one_round_and_the_next_trains_anew(split):
    forks = split(2)
    engine, reference = _engine(), _engine()
    reference._start_training = lambda aggregators, w: _RetiredStep(
        reference, aggregators, w, []
    )
    engine.run_sync_round()
    reference.run_sync_round()
    (pid,) = worker_pids()
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    # equal clients: the worker's share is clients [1, 3]
    clients = re.escape(str([1, 3]))
    with pytest.raises(RuntimeError, match=rf"clients {clients} .*status -9"):
        engine.run_sync_round()
    assert _reaped(pid) and worker_pids() == []
    # the failed round walked the generator before it sent the share
    reference._rng.bit_generator.state = _rng_state(engine)
    got, want = _capture(engine), _capture(reference)
    engine.run_sync_round()
    reference.run_sync_round()
    assert len(forks) == 2
    assert engine.history.accuracies() == reference.history.accuracies()
    assert np.array_equal(
        engine.server.model.get_weights(), reference.server.model.get_weights()
    )
    assert _rng_state(engine) == _rng_state(reference)
    assert got.getvalue() == want.getvalue()
    _only_workers_left(1)


def test_hyper_parameters_changed_between_rounds_reach_the_worker(split):
    forks = split(2)
    start = _model().get_weights()
    engine, reference = (parallel._engine([30, 20, 10, 25], 2, 5) for _ in range(2))
    settings = [
        dict(lr=0.05, batch_size=8),
        dict(lr=0.2, batch_size=8),
        dict(lr=0.2, batch_size=5),
        dict(lr=0.01, batch_size=16, momentum=0.5, weight_decay=1e-3),
    ]
    last = None
    for setting in settings:
        for target in (engine, reference):
            vars(target).update(setting)
        got = engine._train_aggregators([0, 1, 2, 3], start)
        want = _retired_train_step(reference, [0, 1, 2, 3], start)
        _assert_same_results(got, want)
        assert _rng_state(engine) == _rng_state(reference)
        # each setting trains the worker's clients to other weights
        assert last is None or not np.array_equal(got[1].weights, last)
        last = got[1].weights
    assert len(forks) == 1
    _only_workers_left(1)


_EXITING_SCRIPT = textwrap.dedent(
    """
    import os

    import numpy as np

    import repro.engine.engine as engine_module
    from repro.data.partition import iid_partition
    from repro.data.synthetic import SyntheticConfig, make_dataset
    from repro.engine import RoundEngine
    from repro.federated.server import ParameterServer
    from repro.models import logistic

    engine_module._TRAIN_PROCS = 2
    engine_module._SPLIT_FLOPS = 0.0
    dataset = make_dataset(
        SyntheticConfig(
            name="tiny", shape=(1, 8, 8), train_size=120, test_size=20, seed=7
        )
    )
    engine = RoundEngine(
        dataset,
        logistic(input_shape=(1, 8, 8), seed=1),
        iid_partition(dataset, 4, np.random.default_rng(0)),
        batch_size=8,
        seed=3,
    )
    engine.bind_server(ParameterServer(engine.model))
    for _ in range(3):
        engine.run_sync_round()
    pool = engine_module._pools[os.getpid()]
    print(*(worker.pid for worker in pool.workers))
    """
)


def test_an_exiting_interpreter_leaves_no_worker_alive():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _EXITING_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
