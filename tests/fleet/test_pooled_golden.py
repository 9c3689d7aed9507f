"""Whole rounds on the worker pool, pinned to the last bit.

From ``_POOL_BLOCKS`` blocks on, the round's population passes — the
eligibility mask, the uniform draw and the bystanders' drain — are cut
into spans of whole blocks and run on several threads. These rounds run
at n = 12·2¹⁶ + 4 321 rows (13 blocks, the last one short), once inline
and once split three ways, whatever the host's core count, so a seam
between spans (a row drained twice or skipped, a span's uniforms drawn
from the wrong stream position, hits joined out of order) moves a bit.

Each case runs 12 :class:`~repro.fleet.FleetRunner` rounds with rows
killed every third round and revived every fifth, and pins the battery
column's sha256, the exact sums of the rounds' makespans and Joules, and
the sampler's generator state. The values were computed on the commit
before the passes were split, so they also pin that splitting changed
no bit.

Print the values for the current tree::

    PYTHONPATH=src python -m tests.fleet.test_pooled_golden
"""

import hashlib

import numpy as np
import pytest

from repro.fleet import FleetRunner, make_sampler
from repro.fleet import store as fleet_store

from .conftest import toy_fleet

N = 12 * (1 << 16) + 4_321
ROUNDS = 12

#: case name -> (sampler, min_soc)
CASES = {
    "uniform": ("uniform", 0.0),
    "uniform-min-soc": ("uniform", 0.3),
    "data_size": ("data_size", 0.0),
    "data_size-min-soc": ("data_size", 0.3),
    "pareto": ("pareto", 0.0),
    "pareto-min-soc": ("pareto", 0.3),
}

#: case name -> (sha256 of battery_j, float.hex of Σ makespan_s,
#: float.hex of Σ energy_j, the sampler's PCG64 state word in hex)
GOLDEN = {
    "data_size": (
        "d33e04783dac7013c51d1866bee1188a04589cac6eb07061ac410f9bf4c26141",
        "0x1.b4ccccccccccbp+6",
        "0x1.be18000000000p+14",
        "0x49ad13afd0dbbf29a41f040e511dd5b9",
    ),
    "data_size-min-soc": (
        "bde480c5f68c3baa043053cf36395e89ac3e0e0030c482b6055f9d4ed82ae952",
        "0x1.b4ccccccccccbp+6",
        "0x1.c4d8000000000p+14",
        "0xa4fd8ab032f0bf18f5655a75c95233c2",
    ),
    "pareto": (
        "79ddf30695fe801b0fd0d51ff522d973b9bbf352b7716fe6c4d7ff55e8afca9c",
        "0x1.bcccccccccccbp+6",
        "0x1.c630000000000p+14",
        "0x49ad13afd0dbbf29a41f040e511dd5b9",
    ),
    "pareto-min-soc": (
        "e9dfb594df79be64844ef3f461cda4f7372e7e2cd4453872d8d9983bed4f0395",
        "0x1.bcccccccccccbp+6",
        "0x1.c4cc000000000p+14",
        "0x8b1dec317a43eb42a311fea711666de9",
    ),
    "uniform": (
        "70142c20b1c6e414f457d00eeb5a1c0214b328dbe7b55f83f0fafc3ddbb676e3",
        "0x1.a099999999998p+6",
        "0x1.43f8000000000p+14",
        "0x49ad13afd0dbbf29a41f040e511dd5b9",
    ),
    "uniform-min-soc": (
        "1e6f728e0e7ebaea59cdc11cc8082e202cbe1453bf2c4d8a0d497de1b2823227",
        "0x1.b4ccccccccccbp+6",
        "0x1.40e8000000000p+14",
        "0xa3d726bc51cc859651d6324e0a724589",
    ),
}


def run_case(sampler_name, min_soc):
    fleet = toy_fleet(N, seed=9)
    sampler = make_sampler(sampler_name, seed=13)
    runner = FleetRunner(
        fleet,
        sampler=sampler,
        cohort_size=256,
        min_soc=min_soc,
        aggregation_s=1.5,
    )
    churn = np.random.default_rng(4)
    for round_idx in range(ROUNDS):
        kill = churn.choice(N, 16_000, replace=False)
        revive = churn.choice(N, 8_000, replace=False)
        if round_idx % 3 == 1:
            fleet.alive[kill] = False
        if round_idx % 5 == 2:
            fleet.alive[revive] = True
        runner.run_round()
    return fleet, runner, sampler


def fingerprint(fleet, runner, sampler):
    return (
        hashlib.sha256(fleet.battery_j.tobytes()).hexdigest(),
        float.hex(sum(r.makespan_s for r in runner.records)),
        float.hex(sum(r.energy_j for r in runner.records)),
        hex(sampler._bits.state["state"]["state"]),
    )


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pooled_rounds_did_not_move(case, workers, monkeypatch):
    monkeypatch.setattr(fleet_store, "_POOL_SIZE", workers)
    assert len(fleet_store._spans(N)) == workers
    fleet, runner, sampler = run_case(*CASES[case])
    assert fingerprint(fleet, runner, sampler) == GOLDEN[case]
    assert not fleet.alive.all()


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {fingerprint(*run_case(*CASES[name]))!r},")
