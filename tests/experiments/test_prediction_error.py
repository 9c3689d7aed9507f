"""How wrong is the cost model? (ROADMAP item 1, as a tier-1 artefact.)

The paper's pipeline is profile → predict → schedule; Fed-LBAP is
optimal *with respect to the predicted matrix*. This pins the
prediction (`cached_time_curves`, the one profile cache) against what
the simulated phones then do (`realized_times`), LeNet on the MNIST
shape, at six shard sizes per phone: three phones are exact, and the
one the paper singles out as the straggler is not — recorded here so
the PR that fixes the fit has to delete the record.
"""

from __future__ import annotations

import pytest

from repro.experiments.realized import realized_times
from repro.models.zoo import MNIST_SHAPE, build_model
from repro.sched.costs import cached_time_curves

SIZES = (50, 500, 1_500, 3_000, 6_000, 12_000)


@pytest.fixture(scope="module")
def lenet():
    return build_model("lenet", MNIST_SHAPE, seed=0)


def error_ratios(phone, model, sizes=SIZES):
    """predicted / realised seconds at each size, one phone."""
    (curve,) = cached_time_curves([phone], model)
    return [
        curve(n) / realized_times([n], [phone], model)[0] for n in sizes
    ]


@pytest.mark.parametrize("phone", ["nexus6", "mate10", "pixel2"])
def test_linear_phones_are_predicted_within_one_percent(phone, lenet):
    for ratio in error_ratios(phone, lenet):
        assert ratio == pytest.approx(1.0, rel=0.01)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 1: single-line fit clamps at 1e-6 below ~1 000 "
        "samples, +43–60 % at 2 000–3 000"
    ),
)
def test_nexus6p_is_predicted_within_a_factor_of_one_and_a_half(lenet):
    for ratio in error_ratios("nexus6p", lenet):
        assert 1 / 1.5 <= ratio <= 1.5


def test_nexus6p_small_shards_are_predicted_free_today(lenet):
    # today's facts, to be deleted by the fix: the straggler costs
    # nothing below ~1 000 samples as far as any scheduler can tell
    sizes = (50, 500, 1_000)
    (curve,) = cached_time_curves(["nexus6p"], lenet)
    assert all(curve(n) <= 1e-6 for n in sizes)
    realised = realized_times(sizes, ["nexus6p"] * 3, lenet)
    assert realised == pytest.approx([0.71, 7.13, 14.26], abs=0.005)
