"""The round's population passes on the worker pool, against one thread.

From ``_POOL_BLOCKS`` blocks on, the eligibility mask
(``FleetStore.fill_eligible``), the uniform draw
(``CohortSampler._k_smallest_uniforms``) and the bystanders' drain
(``FleetStore.idle``'s mask form) split into spans of whole blocks, the
caller's thread running the first and a per-process pool the rest. Here
the pool size is forced to 1, 2, 3 and 5 threads whatever the host has,
and every result is pinned bit for bit to the one-thread run, which is
pinned in turn to the whole-column formulas: the mask and its count, the
cohort and the sampler's whole bit-generator state (a draw that takes
the fallback included), the battery column. Then: six threads running
pooled passes at once, a forked child running a pooled round after its
parent used the pool, and ``tracemalloc``'s word that a round lists no
eligible rows.
"""

import hashlib
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.fleet import FleetRunner, UniformSampler
from repro.fleet import store as fleet_store
from repro.fleet.store import _BLOCK as B

from .conftest import toy_fleet
from .test_blocked_passes import _retired_mask_drain

THRESHOLD = fleet_store._POOL_BLOCKS * B
SIZES = [THRESHOLD - B, THRESHOLD, 16 * B + 17, 1_000_000]
WORKERS = [1, 2, 3, 5]


def _fleet(n):
    """Dead, empty and data-less rows scattered through, and one whole
    block dead, so the mask has an all-False block beside full ones."""
    rng = np.random.default_rng(n)
    store = toy_fleet(n=n, seed=n % 997)
    store.alive[rng.random(n) < 0.2] = False
    store.alive[B : 2 * B] = False
    store.battery_j[rng.random(n) < 0.1] = 0.0
    store.data_size[rng.random(n) < 0.05] = 0
    return store


def _takes_fallback(seed, m, k):
    u = np.random.default_rng(seed).random(size=m)
    return np.count_nonzero(u < 2.0 * k / m) < k


def _draws(m):
    """(seed, k) pairs to draw with; the first takes the fallback."""
    fallback = next(s for s in range(1_000) if _takes_fallback(s, m, 1))
    return [(fallback, 1), (0, 6), (1, 512)]


def _passes(n):
    """Everything the three passes produce on ``_fleet(n)``."""
    store = _fleet(n)
    out = {}
    for min_soc in (0.0, 0.3):
        mask = np.empty(n, dtype=bool)
        count = store.fill_eligible(mask, min_soc)
        out["mask", min_soc] = (mask, count)
    mask, count = out["mask", 0.3]
    for seed, k in _draws(count):
        sampler = UniformSampler(seed)
        cohort = sampler.sample(mask, k)
        out["draw", seed, k] = (cohort, sampler._bits.state)
    bystanders = store.alive.copy()
    bystanders[::7] = False
    store.idle(bystanders, 37.5)
    out["battery"] = store.battery_j.tobytes()
    return out


_REFERENCE = {}


def _one_thread(n):
    """``_passes(n)`` inline, checked once against the whole-column
    formulas the passes stand for."""
    if n not in _REFERENCE:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fleet_store, "_POOL_SIZE", 1)
            got = _passes(n)
            store = _fleet(n)
            for min_soc in (0.0, 0.3):
                want = store.alive & (store.data_size > 0)
                if min_soc > 0:
                    want &= store.soc() >= min_soc
                mask, count = got["mask", min_soc]
                assert np.array_equal(mask, want)
                assert count == int(want.sum())
            eligible = np.flatnonzero(got["mask", 0.3][0])
            for seed, k in _draws(eligible.size):
                sampler = UniformSampler(seed)
                cohort, state = got["draw", seed, k]
                assert np.array_equal(cohort, sampler.sample(eligible, k))
                assert state == sampler._bits.state
            bystanders = store.alive.copy()
            bystanders[::7] = False
            _retired_mask_drain(store, bystanders, 37.5)
            assert got["battery"] == store.battery_j.tobytes()
        _REFERENCE[n] = got
    return _REFERENCE[n]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("n", SIZES)
def test_pooled_passes_are_the_one_thread_passes(n, workers, monkeypatch):
    want = _one_thread(n)
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", workers)
    spans = fleet_store._spans(n)
    assert (len(spans) > 1) == (workers > 1 and n >= THRESHOLD)
    got = _passes(n)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key[0] == "mask":
            assert np.array_equal(got[key][0], value[0]), key
            assert got[key][1] == value[1], key
        elif key[0] == "draw":
            assert np.array_equal(got[key][0], value[0]), key
            assert got[key][1] == value[1], key
        else:
            assert got[key] == value


def test_the_fallback_draw_is_split_too(monkeypatch):
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", 3)
    m = 16 * B + 17
    assert len(fleet_store._spans(m)) == 3
    seed = next(s for s in range(1_000) if _takes_fallback(s, m, 1))
    pooled, serial = UniformSampler(seed), np.random.default_rng(seed)
    assert pooled._k_smallest_uniforms(m, 1).tolist() == [
        int(np.argmin(serial.random(size=m)))
    ]
    assert pooled._bits.state == serial.bit_generator.state


# -- spans and the pool -----------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
@pytest.mark.parametrize(
    "n", [1, B, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 16 * B + 17, 40 * B]
)
def test_spans_cut_whole_blocks(n, workers, monkeypatch):
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", workers)
    spans = fleet_store._spans(n)
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(lo % B == 0 for lo, _ in spans)
    assert len(spans) <= workers
    if n <= THRESHOLD - B:
        assert spans == [(0, n)]
    if len(spans) > 1:
        assert all(
            hi - lo > (fleet_store._SPAN_BLOCKS - 1) * B for lo, hi in spans
        )


def test_pool_is_rebuilt_in_a_new_process(monkeypatch):
    monkeypatch.setattr(fleet_store, "_pools", {})
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", 2)
    here = fleet_store._pool()
    assert fleet_store._pool() is here
    monkeypatch.setattr(fleet_store.os, "getpid", lambda: -1)
    assert fleet_store._pool() is not here


def test_every_span_finishes_before_an_error_propagates(monkeypatch):
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", 3)
    n = 16 * B
    finished = []
    release = threading.Event()

    def fn(lo, hi):
        if lo == 0:
            raise RuntimeError("first span failed")
        release.wait(10)
        finished.append(lo)
        return lo

    timer = threading.Timer(0.2, release.set)
    timer.start()
    with pytest.raises(RuntimeError, match="first span failed"):
        fleet_store._run_spans(n, fn)
    timer.cancel()
    assert sorted(finished) == [lo for lo, _ in fleet_store._spans(n)[1:]]
    assert fleet_store._run_spans(n, lambda lo, hi: hi - lo) == [
        hi - lo for lo, hi in fleet_store._spans(n)
    ]


# -- threads and processes --------------------------------------------------

STRESS_N = THRESHOLD + 17


def _drain_and_draw(seed):
    store = toy_fleet(n=STRESS_N, seed=seed)
    sampler = UniformSampler(seed)
    cohorts = []
    for _ in range(3):
        store.idle(store.alive, 7.5)
        mask = store.eligible_mask(0.3)
        cohorts.append(sampler.sample(mask, 64).tolist())
    digest = hashlib.sha256(store.battery_j.tobytes()).hexdigest()
    return digest, cohorts, sampler._bits.state


def test_six_threads_on_one_pool_match_one_at_a_time(monkeypatch):
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", 3)
    assert len(fleet_store._spans(STRESS_N)) == 2
    seeds = list(range(6))
    expected = [_drain_and_draw(seed) for seed in seeds]
    got = [None] * len(seeds)

    def run(i):
        got[i] = _drain_and_draw(seeds[i])

    workers = [threading.Thread(target=run, args=(i,)) for i in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == expected


def _pooled_round():
    runner = FleetRunner(
        toy_fleet(n=STRESS_N, seed=21),
        sampler=UniformSampler(21),
        cohort_size=128,
    )
    runner.run(2)
    return hashlib.sha256(runner.fleet.battery_j.tobytes()).hexdigest()


def _child(conn):
    conn.send(_pooled_round())
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_a_forked_child_runs_pooled_rounds(monkeypatch):
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", 2)
    expected = _pooled_round()  # the parent's pool now has a thread
    assert (os.getpid(), 2) in fleet_store._pools
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child, args=(send,))
    with warnings.catch_warnings():
        # Python 3.12 warns about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        assert receive.poll(120), "the forked child's round never finished"
        assert receive.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()


# -- what the mask bought ---------------------------------------------------

N = 1 << 20
MIB = 1 << 20


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_round_lists_no_eligible_rows(workers, monkeypatch):
    """Before the mask form a round peaked at 9.0 bytes a row, ~9.4 MiB
    here: the eligible-row array."""
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", workers)
    runner = FleetRunner(
        toy_fleet(n=N, seed=4), sampler=UniformSampler(4), cohort_size=512
    )
    runner.run_round()  # warm: class-row cache, each thread's scratch
    assert _peak_bytes(runner.run_round) < MIB
