"""Whole rounds across block seams, pinned to the last bit.

The round's two population passes — the bystanders' idle drain and the
uniform cohort draw — stream through the fleet in fixed-size blocks.
The other fleet tests run fleets of a few thousand rows, which is one
block, so a bug at a seam (a row drained twice or skipped, a uniform
drawn out of order) would pass all of them. These rounds run at
n = 200 003 rows: more than three blocks at any block size up to 2¹⁶,
and not a multiple of one.

Each case runs 12 :class:`~repro.fleet.FleetRunner` rounds with rows
killed every third round and revived every fifth, and pins the battery
column's sha256 and the exact sums of the rounds' makespans and Joules.
The values were computed on the commit before the passes were blocked,
so they also pin that blocking changed no bit.

Print the values for the current tree::

    PYTHONPATH=src python -m tests.fleet.test_multiblock_golden
"""

import hashlib

import numpy as np
import pytest

from repro.fleet import FleetRunner, make_sampler

from .conftest import toy_fleet

N = 200_003
ROUNDS = 12

#: case name -> (sampler, min_soc, soc_range); the last fleet starts at
#: 0.05–1 % charge, so most of its rows drain to empty and the floor binds
CASES = {
    "uniform": ("uniform", 0.0, (0.25, 1.0)),
    "uniform-min-soc": ("uniform", 0.3, (0.25, 1.0)),
    "data_size": ("data_size", 0.0, (0.25, 1.0)),
    "data_size-min-soc": ("data_size", 0.3, (0.25, 1.0)),
    "pareto": ("pareto", 0.0, (0.25, 1.0)),
    "pareto-min-soc": ("pareto", 0.3, (0.25, 1.0)),
    "uniform-near-empty": ("uniform", 0.0, (0.0005, 0.01)),
}

#: case name -> (sha256 of battery_j, float.hex of Σ makespan_s,
#: float.hex of Σ energy_j)
GOLDEN = {
    "data_size": (
        "8889b16d091b13c90b5fcdb442db4c269f9a630f8b145c464eed5b5f763f4e6f",
        "0x1.b4ccccccccccbp+6",
        "0x1.c528000000000p+14",
    ),
    "data_size-min-soc": (
        "09d869ce5a184078e0422e73ddc0edf713331d7a4bf69e9f346d7c6aec6af194",
        "0x1.b4ccccccccccbp+6",
        "0x1.bfa8000000000p+14",
    ),
    "pareto": (
        "572e2f2ad733b39dd4db00e57724cea7e4f3ae2b97b532bab0605e20e8ffd8a8",
        "0x1.b4ccccccccccbp+6",
        "0x1.cb20000000000p+14",
    ),
    "pareto-min-soc": (
        "86fc705b49c52a36d39e0128ddede9420efe75211e22d89688c3cfeccb79340a",
        "0x1.bcccccccccccbp+6",
        "0x1.c6ac000000000p+14",
    ),
    "uniform": (
        "3fc5052c9871870acc54617e24424a75ef9e3c2e88ff38577892d629d517f301",
        "0x1.a099999999998p+6",
        "0x1.5478000000000p+14",
    ),
    "uniform-min-soc": (
        "8d05bdb6db3556ba98f803acb0c8d2e290ecd3cd332e02725b84803564b63598",
        "0x1.a099999999998p+6",
        "0x1.2cf8000000000p+14",
    ),
    "uniform-near-empty": (
        "9bbe33f8da24b69a8616990b361983a3c03dbd19ac52755e500eb5c26d383194",
        "0x1.a099999999998p+6",
        "0x1.a1a10109b6021p+13",
    ),
}


def run_case(sampler, min_soc, soc_range):
    fleet = toy_fleet(N, seed=5, soc_range=soc_range)
    runner = FleetRunner(
        fleet,
        sampler=make_sampler(sampler, seed=11),
        cohort_size=256,
        min_soc=min_soc,
        aggregation_s=1.5,
    )
    churn = np.random.default_rng(2)
    for round_idx in range(ROUNDS):
        kill = churn.choice(N, 4_000, replace=False)
        revive = churn.choice(N, 2_000, replace=False)
        if round_idx % 3 == 1:
            fleet.alive[kill] = False
        if round_idx % 5 == 2:
            fleet.alive[revive] = True
        runner.run_round()
    return fleet, runner


def fingerprint(fleet, runner):
    return (
        hashlib.sha256(fleet.battery_j.tobytes()).hexdigest(),
        float.hex(sum(r.makespan_s for r in runner.records)),
        float.hex(sum(r.energy_j for r in runner.records)),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_rounds_across_block_seams_did_not_move(case):
    fleet, runner = run_case(*CASES[case])
    assert fingerprint(fleet, runner) == GOLDEN[case]
    assert not fleet.alive.all()
    if case == "uniform-near-empty":
        assert (fleet.battery_j == 0.0).sum() > N // 2


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {fingerprint(*run_case(*CASES[name]))!r},")
