"""``CohortSampler.sample`` given a boolean mask instead of row indices.

A uniform sampler draws ``k`` positions among the mask's ``m`` ``True``
rows and maps them to rows block by block, never listing the ``m``;
weighted samplers list them and go on as for an index array. Either way
``sample(mask, k)`` must be ``sample(np.flatnonzero(mask), k)``: the
same rows and the same generator state after it, checked here over
masks made of whole-``True``, whole-``False``, dense and sparse blocks,
a short last block, and ``m <= k``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import UniformSampler, make_sampler
from repro.fleet.store import _BLOCK as B

SAMPLERS = ["uniform", "data_size", "pareto"]

#: the probability a row of each kind of block is True
BLOCK_KINDS = {"all": 1.0, "none": 0.0, "dense": 0.9, "sparse": 0.001}


def _mask(n, kinds, seed):
    rng = np.random.default_rng(seed)
    density = np.repeat(
        [BLOCK_KINDS[kinds[i % len(kinds)]] for i in range(-(-n // B))], B
    )[:n]
    return rng.random(n) < density


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 7, 300, B - 1, B, B + 1, 2 * B + 5, 3 * B + 17]),
    kinds=st.lists(st.sampled_from(sorted(BLOCK_KINDS)), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(1, 600),
    name=st.sampled_from(SAMPLERS),
)
def test_mask_form_is_the_index_form(n, kinds, seed, k, name):
    mask = _mask(n, kinds, seed)
    rows = np.flatnonzero(mask)
    sizes = np.random.default_rng(seed + 1).integers(0, 3_000, rows.size)
    by_mask = make_sampler(name, seed=seed)
    by_rows = make_sampler(name, seed=seed)
    # two draws in a row, so a stream that drifted after the first shows
    for _ in range(2):
        got = by_mask.sample(mask, k, data_size=sizes)
        want = by_rows.sample(rows, k, data_size=sizes)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert by_mask._bits.state == by_rows._bits.state


@pytest.mark.parametrize(
    "n, kinds",
    [
        (3 * B + 17, ["all"]),
        (3 * B + 17, ["none", "all", "sparse", "dense"]),
        (2 * B + 5, ["dense", "none"]),
        (B + 1, ["sparse"]),
    ],
)
def test_mask_form_maps_every_kind_of_block(n, kinds):
    mask = _mask(n, kinds, 3)
    rows = np.flatnonzero(mask)
    for k in (1, 64, rows.size - 1, rows.size, rows.size + 5):
        if k <= 0:
            continue
        a, b = UniformSampler(k), UniformSampler(k)
        assert np.array_equal(a.sample(mask, k), b.sample(rows, k))
        assert a._bits.state == b._bits.state


def test_mask_with_no_more_rows_than_k_draws_nothing():
    mask = np.zeros(2 * B + 5, dtype=bool)
    mask[[3, B + 9, 2 * B + 4]] = True
    sampler, fresh = UniformSampler(0), UniformSampler(0)
    assert sampler.sample(mask, 3).tolist() == [3, B + 9, 2 * B + 4]
    assert sampler.sample(mask, 10).tolist() == [3, B + 9, 2 * B + 4]
    assert sampler._bits.state == fresh._bits.state


@pytest.mark.parametrize("name", SAMPLERS)
def test_mask_form_validation(name):
    mask = np.zeros(12, dtype=bool)
    mask[::3] = True
    sampler = make_sampler(name)
    sizes = np.arange(4)
    with pytest.raises(ValueError, match="integer index array or a boolean"):
        sampler.sample(mask.astype(np.float64), 2, data_size=sizes)
    with pytest.raises(ValueError, match="1-D"):
        sampler.sample(mask.reshape(3, 4), 2, data_size=sizes)
    with pytest.raises(ValueError, match="align"):
        # one size per row of the fleet, not per True row
        sampler.sample(mask, 2, data_size=np.arange(mask.size))
    with pytest.raises(ValueError, match="positive"):
        sampler.sample(mask, 0, data_size=sizes)
    assert sampler.sample(mask, 2, data_size=sizes).size == 2
