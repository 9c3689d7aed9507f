"""The round's two population passes, blocked, against their
whole-column bodies.

The bystanders' drain (``FleetStore.idle``'s mask form) and the
uniform cohort draw (``CohortSampler._k_smallest_uniforms``) walk the
population ``_BLOCK`` rows at a time through one reused block of
scratch. Here they are pinned bit for bit against the bodies they
replaced — the drain kept verbatim below, the draw as
``test_sampling``'s retired Gumbel draw — at sizes on both sides of
every block seam; a mask that does not have one entry per row is
refused; and ``tracemalloc`` pins what blocking bought: no allocation
the size of the fleet.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.fleet import FleetRunner, UniformSampler
from repro.fleet.store import _BLOCK as B
from repro.fleet.store import _block_scratch
from repro.sched.costs import fleet_problem

from .conftest import toy_fleet
from .test_sampling import _assert_draw_is_retired_draw

SIZES = [1, B - 1, B, B + 1, 3 * B + 17]


def _retired_mask_drain(store, mask, seconds):
    """``FleetStore.idle``'s mask form before it was blocked, kept
    verbatim as the reference: four passes over whole columns."""
    seconds = np.asarray(seconds, dtype=np.float64)
    need = store._idle_power_row * seconds
    np.minimum(need, store.battery_j, out=need)
    need[~mask] = 0.0
    store.battery_j -= need


def _edge_fleet(n, seconds):
    """A fleet whose rows sit at empty, at the smallest subnormal, just
    above and just below what ``seconds`` of idling drains, and at
    random charge; a fifth of them dead."""
    rng = np.random.default_rng(n)
    store = toy_fleet(n=n, seed=n)
    drain = np.minimum(
        store._idle_power_row * np.float64(seconds), store.capacity_j
    )
    kind = rng.integers(0, 5, size=n)
    store.battery_j[kind == 0] = 0.0
    store.battery_j[kind == 1] = 5e-324
    above = np.minimum(np.nextafter(drain, np.inf), store.capacity_j)
    below = np.nextafter(drain, 0.0)
    store.battery_j[kind == 2] = above[kind == 2]
    store.battery_j[kind == 3] = below[kind == 3]
    store.alive[rng.random(n) < 0.2] = False
    return store


def _mask(store, kind):
    if kind == "random":
        rng = np.random.default_rng(store.n + 1)
        return store.alive & (rng.random(store.n) < 0.7)
    return np.full(store.n, kind == "all")


class TestBlockedDrain:
    @pytest.mark.parametrize("seconds", [0.0, 1e-300, 1e5])
    @pytest.mark.parametrize("mask_kind", ["random", "none", "all"])
    @pytest.mark.parametrize("n", SIZES)
    def test_mask_form_is_the_retired_whole_column_drain(
        self, n, mask_kind, seconds
    ):
        store = _edge_fleet(n, seconds)
        mask = _mask(store, mask_kind)
        blocked, reference = store.copy(), store.copy()
        blocked.idle(mask, seconds)
        _retired_mask_drain(reference, mask, seconds)
        assert blocked.battery_j.tobytes() == reference.battery_j.tobytes()
        assert np.array_equal(mask, _mask(store, mask_kind))

    @pytest.mark.parametrize("n", [5, B + 1])
    def test_a_mask_without_one_entry_per_row_is_refused(self, n):
        store = toy_fleet(n=n, seed=1)
        before = store.battery_j.copy()
        for bad in (
            np.ones(1, dtype=bool),
            np.ones(n - 1, dtype=bool),
            np.ones(n + 1, dtype=bool),
            np.ones((1, n), dtype=bool),
        ):
            with pytest.raises(ValueError, match="one entry per row"):
                store.idle(bad, 10.0)
        assert store.battery_j.tobytes() == before.tobytes()


def _takes_fallback(seed, m, k):
    u = np.random.default_rng(seed).random(size=m)
    return np.count_nonzero(u < 2.0 * k / m) < k


class TestBlockedDraw:
    @pytest.mark.parametrize("k", [1, 6, 512])
    @pytest.mark.parametrize("m", SIZES[1:])
    def test_draw_is_the_retired_gumbel_draw(self, m, k):
        _assert_draw_is_retired_draw(m + k, m, k)

    @pytest.mark.parametrize("m", [B + 1, 3 * B + 17])
    def test_fallback_past_the_first_block_rewinds_the_stream(self, m):
        k = 6
        seed = next(s for s in range(1_000) if _takes_fallback(s, m, k))
        _assert_draw_is_retired_draw(seed, m, k)


# -- what blocking bought ---------------------------------------------------

N = 1 << 20
MIB = 1 << 20


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoFleetSizedTemporaries:
    """Before blocking these peaked at 9.0 MiB (drain), 9.0 MiB (draw)
    and 18.1 bytes a row (round); blocked, 0.06 MiB, 0.08 MiB and 9.0
    bytes a row — the eligible-row array, 8 bytes a row, is what a round
    still allocates. Each is measured after a first call, which may
    allocate the thread's one block of scratch (0.5 MiB, once)."""

    def test_bystander_drain_allocates_under_a_mib(self):
        store = toy_fleet(n=N, seed=2)
        mask = store.alive.copy()
        mask[::7] = False
        store.idle(mask, 3.5)
        assert _peak_bytes(lambda: store.idle(mask, 3.5)) < MIB

    def test_uniform_draw_allocates_under_a_mib_beyond_its_input(self):
        eligible = np.arange(N, dtype=np.int64)
        sampler = UniformSampler(3)
        sampler.sample(eligible, 512)
        assert _peak_bytes(lambda: sampler.sample(eligible, 512)) < MIB

    def test_a_round_peaks_under_ten_bytes_a_row(self):
        runner = FleetRunner(
            toy_fleet(n=N, seed=4),
            sampler=UniformSampler(4),
            cohort_size=512,
        )
        runner.run_round()  # warm the class-row cache and the scratch
        assert _peak_bytes(runner.run_round) < 10 * N


def test_each_thread_streams_through_its_own_scratch():
    # NumPy releases the GIL inside the kernels, so two threads running
    # rounds must not share a buffer
    here = _block_scratch()
    assert _block_scratch() is here
    there = []
    worker = threading.Thread(target=lambda: there.append(_block_scratch()))
    worker.start()
    worker.join()
    assert there[0] is not here
    assert there[0].shape == here.shape == (B,)


def _drain_and_draw(seed):
    store = toy_fleet(n=3 * B + 17, seed=seed)
    sampler = UniformSampler(seed)
    eligible = np.arange(store.n, dtype=np.int64)
    cohorts = []
    for _ in range(4):
        store.idle(store.alive, 7.5)
        cohorts.append(sampler.sample(eligible, 64).tolist())
    return store.battery_j.tobytes(), cohorts


def test_threads_running_both_passes_at_once_match_one_at_a_time():
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
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == expected


def test_dispatch_counts_eligible_rows_without_listing_them():
    fleet = toy_fleet(n=64, seed=6)
    fleet.alive[:8] = False
    fleet.battery_j[8:16] = 0.0  # drained below min_soc
    fleet.data_size[16:24] = 0  # nothing to train on
    runner = FleetRunner(fleet, min_soc=0.3, detail_threshold=0)
    cohort = runner.eligible_indices()
    problem = fleet_problem(
        fleet, cohort=cohort, shard_size=runner.core.shard_size
    )
    assignment = runner.core.plan(runner.scheduler, problem, 1, 0.0)
    work = runner.core.dispatch(cohort, assignment, 1, 0.0)
    assert work.eligible_count == runner.eligible_indices().size
    assert 0 < work.eligible_count < fleet.n - 24
