"""The P2 objective evaluator."""

import numpy as np
import pytest

from repro.core.minavg import fed_minavg
from repro.core.objective import p2_objective
from repro.core.schedule import Schedule


class TestP2Objective:
    def curves(self):
        return [lambda x: 0.01 * x, lambda x: 0.02 * x]

    def test_counts_only_participants(self):
        sched = Schedule(np.array([5, 0]), 100)
        val = p2_objective(
            sched, self.curves(), [(0,), (1,)], 10, alpha=1.0
        )
        # user 0: T(500)=5 + alpha*K/1 = 10 -> 15
        assert val == pytest.approx(15.0)

    def test_comm_added(self):
        sched = Schedule(np.array([5, 0]), 100)
        val = p2_objective(
            sched,
            self.curves(),
            [(0,), (1,)],
            10,
            alpha=0.0,
            comm_costs=[2.0, 2.0],
        )
        assert val == pytest.approx(7.0)

    def test_greedy_minavg_not_worse_than_equal(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 2, 4)
        b = rng.uniform(0.005, 0.05, 4)
        classes = [(0, 1, 2), (3, 4), (5,), (6, 7, 8, 9)]
        curves = [
            lambda x, ai=ai, bi=bi: ai + bi * x for ai, bi in zip(a, b)
        ]
        greedy = fed_minavg(
            curves, classes, 20, 100, 10, alpha=30.0
        )
        equal = Schedule(np.full(4, 5), 100)
        g = p2_objective(greedy, curves, classes, 10, alpha=30.0)
        e = p2_objective(equal, curves, classes, 10, alpha=30.0)
        assert g <= e + 1e-9

    def test_validation(self):
        sched = Schedule(np.array([1]), 100)
        with pytest.raises(ValueError):
            p2_objective(sched, [], [(0,)], 10, 1.0)
        with pytest.raises(ValueError):
            p2_objective(
                sched, self.curves()[:1], [(0,)], 10, 1.0,
                comm_costs=[1.0, 2.0],
            )
