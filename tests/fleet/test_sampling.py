"""Cohort samplers: determinism, eligibility, bias, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    CohortSampler,
    DataSizeBiasedSampler,
    FleetRunner,
    ParetoSampler,
    UniformSampler,
    available_samplers,
    make_sampler,
)

from .conftest import toy_fleet


def eligible_set(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(
        rng.choice(np.arange(10 * n), size=n, replace=False)
    ).astype(np.int64)


SAMPLER_FACTORIES = [
    lambda seed: UniformSampler(seed),
    lambda seed: DataSizeBiasedSampler(seed),
    lambda seed: ParetoSampler(seed),
    lambda seed: make_sampler("uniform", seed=seed),
]


@pytest.mark.parametrize("factory", SAMPLER_FACTORIES)
def test_same_seed_same_cohort(factory):
    eligible = eligible_set()
    sizes = np.arange(1, eligible.size + 1, dtype=np.int64)
    a = factory(3).sample(eligible, 10, data_size=sizes)
    b = factory(3).sample(eligible, 10, data_size=sizes)
    assert np.array_equal(a, b)
    c = factory(4).sample(eligible, 10, data_size=sizes)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("factory", SAMPLER_FACTORIES)
def test_cohort_is_sorted_subset_of_eligible(factory):
    eligible = eligible_set(seed=5)
    sizes = np.full(eligible.size, 10, dtype=np.int64)
    cohort = factory(0).sample(eligible, 17, data_size=sizes)
    assert cohort.size == 17
    assert np.array_equal(cohort, np.sort(cohort))
    assert np.isin(cohort, eligible).all()
    assert np.unique(cohort).size == cohort.size


def test_small_eligible_set_passes_through_without_randomness():
    eligible = np.array([9, 3, 5], dtype=np.int64)
    s = UniformSampler(seed=0)
    assert np.array_equal(s.sample(eligible, 3), [3, 5, 9])
    assert np.array_equal(s.sample(eligible, 10), [3, 5, 9])
    # the pass-through consumed no randomness: the next real draw
    # matches a fresh sampler's first draw
    big = eligible_set(seed=2)
    fresh = UniformSampler(seed=0)
    assert np.array_equal(s.sample(big, 5), fresh.sample(big, 5))


def test_data_size_bias_prefers_data_rich_devices():
    eligible = np.arange(50, dtype=np.int64)
    sizes = np.ones(50, dtype=np.int64)
    sizes[7] = 1_000_000  # one data giant
    hits = sum(
        7 in DataSizeBiasedSampler(seed).sample(eligible, 5, sizes)
        for seed in range(40)
    )
    assert hits >= 38  # essentially always selected


def test_pareto_default_alpha():
    s = ParetoSampler()
    assert s.bias == pytest.approx(1.16)


def test_validation_errors():
    eligible = np.arange(10, dtype=np.int64)
    with pytest.raises(ValueError, match="positive"):
        UniformSampler().sample(eligible, 0)
    with pytest.raises(ValueError, match="align"):
        UniformSampler().sample(eligible, 3, data_size=np.arange(4))
    with pytest.raises(ValueError, match="data sizes"):
        DataSizeBiasedSampler().sample(eligible, 3)
    with pytest.raises(ValueError, match="1-D"):
        UniformSampler().sample(eligible.reshape(2, 5), 3)
    with pytest.raises(ValueError, match="bias"):
        DataSizeBiasedSampler(bias=0.0)
    class BrokenWeights(UniformSampler):
        def weights(self, eligible, data_size):
            return np.zeros(eligible.size)

    with pytest.raises(ValueError, match="positive and finite"):
        BrokenWeights().sample(eligible, 3)


def test_registry():
    assert available_samplers() == ["data_size", "pareto", "uniform"]
    assert isinstance(make_sampler("pareto", seed=1), ParetoSampler)
    assert isinstance(
        make_sampler("data_size", seed=1, bias=2.0),
        DataSizeBiasedSampler,
    )
    with pytest.raises(KeyError, match="unknown cohort sampler"):
        make_sampler("bogus")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 200),
    k=st.integers(1, 64),
    name=st.sampled_from(["uniform", "data_size", "pareto"]),
)
def test_property_seed_determinism_and_eligibility(seed, n, k, name):
    """ISSUE acceptance: samplers are seed-deterministic and only ever
    return eligible devices."""
    rng = np.random.default_rng(seed)
    eligible = np.flatnonzero(rng.random(n) < 0.7).astype(np.int64)
    if eligible.size == 0:
        return
    sizes = rng.integers(1, 1000, size=eligible.size).astype(np.int64)
    a = make_sampler(name, seed=seed).sample(eligible, k, data_size=sizes)
    b = make_sampler(name, seed=seed).sample(eligible, k, data_size=sizes)
    assert np.array_equal(a, b)
    assert a.size == min(k, eligible.size)
    assert np.isin(a, eligible).all()
    assert np.array_equal(a, np.sort(a))


# -- the uniform draw is the retired Gumbel draw ---------------------------


def _retired_uniform_draw(rng, idx, k):
    """What ``CohortSampler.sample`` ran for uniform weights before the
    k-smallest-uniforms draw replaced it, kept verbatim as the
    reference."""
    gumbel = rng.gumbel(size=idx.size)
    top = np.argpartition(gumbel, idx.size - k)[idx.size - k :]
    return np.sort(idx[top])


def _assert_draw_is_retired_draw(seed, m, k):
    eligible = np.arange(m, dtype=np.int64) * 3 + 1
    sampler, reference = UniformSampler(seed), np.random.default_rng(seed)
    # two draws, so a stream that drifted after the first would show
    for _ in range(2):
        assert np.array_equal(
            sampler.sample(eligible, k),
            _retired_uniform_draw(reference, eligible, k),
        )
        assert (
            sampler._rng.bit_generator.state
            == reference.bit_generator.state
        )


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.integers(2, 5_000).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, m - 1))
    ),
)
def test_property_uniform_draw_is_the_retired_gumbel_draw(seed, shape):
    _assert_draw_is_retired_draw(seed, *shape)


@pytest.mark.parametrize(
    "seed, m, k, prefiltered",
    [
        # no uniform under 2k/m: the full partition runs
        (6, 5_000, 1, False),
        # ~2k pass the threshold: only those are partitioned
        (0, 100_000, 512, True),
        (1, 20_000, 64, True),
        (2, 7, 6, True),
    ],
)
def test_uniform_draw_select_branches(seed, m, k, prefiltered):
    u = np.random.default_rng(seed).random(size=m)
    assert (np.count_nonzero(u < 2.0 * k / m) >= k) == prefiltered
    _assert_draw_is_retired_draw(seed, m, k)


#: cohorts of 8 from ``arange(0, 600, 3)`` with sizes ``37 j mod 1000
#: + 1``, computed at the commit before the uniform draw changed
WEIGHTED_COHORTS = {
    ("data_size", 0): [33, 60, 159, 276, 324, 450, 477, 588],
    ("data_size", 1): [27, 108, 117, 183, 225, 279, 528, 552],
    ("data_size", 2): [147, 192, 240, 258, 291, 399, 423, 561],
    ("pareto", 0): [33, 60, 159, 276, 324, 450, 477, 588],
    ("pareto", 1): [27, 108, 117, 183, 225, 279, 528, 552],
    ("pareto", 2): [147, 192, 240, 291, 318, 399, 423, 561],
}


@pytest.mark.parametrize("name, seed", sorted(WEIGHTED_COHORTS))
def test_weighted_cohorts_did_not_move(name, seed):
    eligible = np.arange(0, 600, 3, dtype=np.int64)
    sizes = (np.arange(eligible.size, dtype=np.int64) * 37) % 1000 + 1
    cohort = make_sampler(name, seed=seed).sample(
        eligible, 8, data_size=sizes
    )
    assert cohort.tolist() == WEIGHTED_COHORTS[(name, seed)]


def test_uses_data_size_per_registered_sampler():
    assert {
        name: make_sampler(name).uses_data_size
        for name in available_samplers()
    } == {"uniform": False, "data_size": True, "pareto": True}

    class Forgetful(CohortSampler):
        def weights(self, eligible, data_size):
            return None

    # a subclass that does not say is handed the column
    assert Forgetful().uses_data_size is True


def _drawn_by_runner(sampler, rounds=2):
    """The ``(cohort, data_size)`` pairs a ``FleetRunner`` hands to and
    gets from ``sampler.sample``."""
    draw, seen = sampler.sample, []

    def spy(eligible, k, data_size=None):
        cohort = draw(eligible, k, data_size=data_size)
        seen.append((cohort.tolist(), data_size))
        return cohort

    sampler.sample = spy
    runner = FleetRunner(
        toy_fleet(n=200, seed=3), sampler=sampler, cohort_size=8
    )
    runner.run(rounds)
    return runner, seen


def test_runner_gathers_data_size_only_for_samplers_that_read_it():
    runner, seen = _drawn_by_runner(DataSizeBiasedSampler(5))
    # computed at the commit before ``uses_data_size`` existed
    assert [cohort for cohort, _ in seen] == [
        [29, 31, 48, 88, 112, 129, 160, 180],
        [4, 38, 47, 95, 103, 110, 111, 188],
    ]
    # every row stays eligible here, so the gather is the column
    assert all(
        np.array_equal(sizes, runner.fleet.data_size) for _, sizes in seen
    )
    _, seen = _drawn_by_runner(UniformSampler(5))
    assert [sizes for _, sizes in seen] == [None, None]
