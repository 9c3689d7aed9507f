"""Determinism tests: identical configs must yield identical rows.

Every reported number flows from explicit seeds and a virtual clock, so
re-running an experiment must reproduce it bit for bit — the property
that makes EXPERIMENTS.md auditable.
"""

import numpy as np
import pytest

from repro.experiments import fig2, fig5, table4
from repro.experiments.flruns import FLRunConfig
from repro.sched.costs import clear_cost_cache as clear_curve_cache


def rows_equal(a, b):
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.keys() == rb.keys()
        for k in ra:
            va, vb = ra[k], rb[k]
            if isinstance(va, float):
                assert va == pytest.approx(vb, abs=1e-12), k
            else:
                assert va == vb, k


class TestDeterminism:
    def test_table4_deterministic(self):
        cfg = table4.Table4Config(scenarios=("S1",), shard_size=500)
        a = table4.run(cfg)
        clear_curve_cache()  # even across a cold profile cache
        b = table4.run(cfg)
        rows_equal(a, b)

    def test_fig5_deterministic(self):
        cfg = fig5.Fig5Config(
            testbeds=(1,),
            datasets=("mnist",),
            models=("lenet",),
            random_repeats=1,
        )
        a = fig5.run(cfg)
        b = fig5.run(cfg)
        rows_equal(a, b)

    def test_fig2_training_deterministic(self):
        cfg = fig2.Fig2Config(
            datasets=("mnist_mini",),
            ratios=(0.5,),
            n_users=5,
            fl=FLRunConfig(rounds=3),
        )
        a = fig2.run(cfg)
        b = fig2.run(cfg)
        rows_equal(a, b)

    def test_different_seeds_differ(self):
        base = fig2.Fig2Config(
            datasets=("mnist_mini",),
            ratios=(0.7,),
            n_users=5,
            fl=FLRunConfig(rounds=3),
        )
        a = fig2.run(base)
        b = fig2.run(
            fig2.Fig2Config(
                datasets=("mnist_mini",),
                ratios=(0.7,),
                n_users=5,
                fl=FLRunConfig(rounds=3),
                seed=base.seed + 1,
            )
        )
        fed_a = [
            r["imbalance_ratio"]
            for r in a.rows
            if r["setting"] == "federated"
        ]
        fed_b = [
            r["imbalance_ratio"]
            for r in b.rows
            if r["setting"] == "federated"
        ]
        assert fed_a != fed_b  # different draws of the size vector
