"""Scheduler-subsystem performance pins.

OLAR's heap greedy is the subsystem's scalable path — O(n + D log n)
independent of the cost-matrix width — so it must stay fast at fleet
scale (n = 1000 users). The MinEnergy DP is exact but O(n D^2); its pin
is a testbed-scale budget documenting where it is meant to be used.
Fed-LBAP's selection is checked against a plain threshold bisection at
a size no tier-1 test reaches (1 000 distinct dipping rows).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_scheduler_bench.py -s``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.lbap import fed_lbap
from repro.sched import SchedulingProblem, get_scheduler
from repro.sched.olar import olar_assign


def fleet_problem(n_users, total_shards, seed=0, with_energy=False):
    rng = np.random.default_rng(seed)
    intercepts = rng.uniform(0.5, 3.0, n_users)
    slopes = rng.uniform(0.05, 1.0, n_users)
    k = np.arange(1, total_shards + 1)
    time_cost = intercepts[:, None] + slopes[:, None] * k[None, :]
    energy_cost = None
    if with_energy:
        energy_cost = (
            rng.uniform(0.2, 2.0, n_users)[:, None] * k[None, :]
        )
    return SchedulingProblem(
        time_cost=time_cost,
        total_shards=total_shards,
        shard_size=100,
        energy_cost=energy_cost,
        rng=seed,
    )


class TestOlarScale:
    def test_olar_1000_users(self, benchmark):
        """Perf pin: n = 1000 users, D = 5000 shards in well under a
        second (the matrix build dominates, not the heap)."""
        problem = fleet_problem(1000, 5000)
        caps = problem.effective_capacities()

        def solve():
            return olar_assign(
                problem.time_cost, problem.total_shards, caps
            )

        counts = benchmark(solve)
        assert int(counts.sum()) == 5000
        t0 = time.perf_counter()
        solve()
        elapsed = time.perf_counter() - t0
        print(f"\nOLAR n=1000, D=5000: {elapsed * 1e3:.1f} ms")
        assert elapsed < 1.0, "OLAR regressed past its 1 s budget"

    def test_olar_still_optimal_at_scale(self):
        """Spot-check: the predicted makespan matches Fed-LBAP's exact
        threshold search on the same large instance."""
        problem = fleet_problem(1000, 2000, seed=1)
        olar = get_scheduler("olar").schedule(problem)
        lbap = get_scheduler("fed_lbap").schedule(problem)
        assert abs(
            olar.predicted_makespan_s - lbap.predicted_makespan_s
        ) < 1e-9


class TestFedLbapAtSize:
    def test_dense_distinct_dipping_rows_with_capacities(self):
        """1 000 distinct rows x 2 000 cells, every row flat in places
        and dipping +-4e-10 there, random capacities: ``c*`` is the
        value a plain threshold bisection over ``np.unique(cost)``
        finds (one scalar ``searchsorted`` per row and probe, capped),
        and the counts fill D within the capacities."""
        rng = np.random.default_rng(1000)
        n, s = 1000, 2000
        steps = rng.uniform(0.0, 1.0, (n, s)) * (rng.random((n, s)) >= 0.2)
        cost = np.abs(
            np.cumsum(steps, axis=1) + rng.integers(-1, 2, (n, s)) * 4e-10
        )
        caps = rng.integers(0, s + 1, n)
        total = int(caps.sum()) // 2

        def feasible(threshold):
            counts = [np.searchsorted(row, threshold, side="right") for row in cost]
            return int(np.minimum(counts, caps).sum()) >= total

        values = np.unique(cost)
        lo, hi = 0, len(values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(values[mid]):
                hi = mid
            else:
                lo = mid + 1
        assert (np.diff(cost, axis=1) < 0).any(axis=1).all()

        t0 = time.perf_counter()
        schedule, c_star = fed_lbap(cost, total, 1, caps)
        elapsed = time.perf_counter() - t0
        print(f"\nFed-LBAP 1000 x 2000, dipping, capped: {elapsed * 1e3:.1f} ms")
        assert c_star.hex() == float(values[lo]).hex()
        counts = schedule.shard_counts
        assert int(counts.sum()) == total
        assert ((counts >= 0) & (counts <= caps)).all()


class TestMinEnergyBudget:
    def test_min_energy_testbed_scale(self, benchmark):
        """The exact DP stays interactive at testbed scale
        (n = 10 devices, D = 120 shards)."""
        problem = fleet_problem(10, 120, seed=2, with_energy=True)
        scheduler = get_scheduler("min_energy")

        assignment = benchmark(scheduler.schedule, problem)
        assert (
            assignment.schedule.total_shards == problem.total_shards
        )
        t0 = time.perf_counter()
        scheduler.schedule(problem)
        elapsed = time.perf_counter() - t0
        print(f"\nMinEnergy n=10, D=120: {elapsed * 1e3:.1f} ms")
        assert elapsed < 5.0, "MinEnergy DP regressed past its budget"
