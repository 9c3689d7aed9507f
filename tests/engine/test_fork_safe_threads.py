"""Parked fleet-pass workers do not keep a sync round in one process.

The columnar fleet's population passes keep a per-process thread pool
for the life of the process. Its workers register themselves with
``repro.cores.mark_fork_safe``: every pass waits for its spans, so a
parked worker only waits on the pool's queue, and a forked child never
uses that pool. ``RoundEngine._train_shares`` forks its training
workers past them, bit for bit as before; any other live thread still
keeps the round inline.
"""

import threading

import numpy as np

from repro import cores
from repro.fleet import store as fleet_store
from repro.fleet.store import synthetic_fleet

from . import test_parallel_train as parallel
from .test_overlapped_round import run_against_the_retired_loop

#: split at any size on the cores each test sets; returns the fork log
split = parallel.split


def _pooled_pass(monkeypatch):
    """One eligibility pass long enough for the pool, on two threads."""
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", 2)
    store = synthetic_fleet(fleet_store._POOL_BLOCKS * fleet_store._BLOCK)
    assert len(fleet_store._spans(store.n)) == 2
    store.fill_eligible(np.empty(store.n, dtype=bool))
    assert any(t.name.startswith("fleet-pass") for t in threading.enumerate())


def test_a_round_after_a_pooled_pass_still_forks(split, monkeypatch):
    _pooled_pass(monkeypatch)
    forks = split(2)
    run_against_the_retired_loop(rounds=2)
    assert len(forks) == 1
    parallel._only_workers_left(1)


def test_a_user_thread_beside_the_pool_keeps_the_round_inline(
    split, monkeypatch
):
    _pooled_pass(monkeypatch)
    forks = split(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        run_against_the_retired_loop(rounds=2)
    finally:
        stop.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert forks == []


def test_only_registered_threads_are_fork_safe():
    """A registered thread leaves the answer as it was; any other makes
    it False."""
    before = cores.fork_safe()
    ready, stop = threading.Event(), threading.Event()

    def worker(mark):
        if mark:
            cores.mark_fork_safe()
        ready.set()
        stop.wait()

    for mark in (True, False):
        ready.clear()
        stop.clear()
        thread = threading.Thread(target=worker, args=(mark,))
        thread.start()
        try:
            assert ready.wait(10.0)
            assert cores.fork_safe() == (before and mark)
        finally:
            stop.set()
            thread.join(10.0)
        assert not thread.is_alive()
    assert cores.fork_safe() == before
