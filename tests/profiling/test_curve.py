"""A cost curve is one value, and its rows are the old closures' bits.

``Curve.__call__`` is the arithmetic of the closure ``bootstrap_curve``
used to return, operand order included, and ``curve_rows`` is the same
IEEE operations over the shard grid in one broadcast. The retired
closures and the retired fleet-class broadcast live here verbatim as
the references; every comparison is on the float64 bit patterns.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cost import build_cost_matrix
from repro.fleet import synthetic_fleet
from repro.profiling import Curve, TimeCurve
from repro.profiling.profiler import TIME_FLOOR_S, curve_rows
from repro.sched.costs import (
    cached_energy_curves,
    cached_time_curves,
    clear_cost_cache,
    fleet_class_matrices,
)


def _retired_bootstrap_curve(b0, b1, b2):
    """The closure ``bootstrap_curve`` returned before ``Curve``."""

    def curve(n_samples: float) -> float:
        t = b0 + b1 * n_samples + b2 * n_samples * n_samples
        return t if t > 1e-6 else 1e-6

    return curve


def _retired_energy_curve(intercept, slope):
    """The closure ``cached_energy_curves`` returned before ``Curve``."""

    def curve(
        n_samples: float, a: float = intercept, b: float = slope
    ) -> float:
        if n_samples <= 0:
            return 0.0
        return a + b * n_samples

    return curve


def _retired_fleet_class_matrices(fleet, n_shards, shard_size):
    """The broadcast ``fleet_class_matrices`` made before ``curve_rows``."""
    samples = np.arange(1, n_shards + 1, dtype=np.float64) * float(
        shard_size
    )
    time_base = np.array(
        [c.time_base_s for c in fleet.classes], dtype=np.float64
    )
    time_slope = np.array(
        [c.time_per_sample_s for c in fleet.classes], dtype=np.float64
    )
    energy_base = np.array(
        [c.energy_base_j for c in fleet.classes], dtype=np.float64
    )
    energy_slope = np.array(
        [c.energy_per_sample_j for c in fleet.classes], dtype=np.float64
    )
    time_cols = time_base[:, None] + time_slope[:, None] * samples[None, :]
    energy_cols = (
        energy_base[:, None] + energy_slope[:, None] * samples[None, :]
    )
    time_cols = np.maximum.accumulate(time_cols, axis=1)
    energy_cols = np.maximum.accumulate(energy_cols, axis=1)
    return time_cols, energy_cols


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


#: coefficients: ordinary, negative (Property 1's cummax and the floor
#: engage), signed zeros, denormals, overflow-sized magnitudes and NaN
#: (a curve that evaluates to NaN sits on its floor)
coefficients = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-6,
         float("nan")]
    ),
)
floors = st.sampled_from([TIME_FLOOR_S, 0.0, -0.0])
shard_sizes = st.sampled_from([1, 20, 50, 500, 1000])


class TestCurveIsTheRetiredClosure:
    @settings(max_examples=300, deadline=None)
    @given(
        b0=coefficients,
        b1=coefficients,
        b2=coefficients,
        x=st.one_of(
            st.integers(1, 10**6).map(float),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
    )
    @example(b0=-46.1, b1=0.0071, b2=0.0, x=500.0)  # on the floor
    @example(b0=1e300, b1=1e300, b2=1e300, x=1e6)  # overflow to inf
    @example(b0=-0.0, b1=-0.0, b2=0.0, x=50.0)
    def test_bootstrap_arithmetic(self, b0, b1, b2, x):
        assert bits(Curve(b0, b1, b2)(x)) == bits(
            _retired_bootstrap_curve(b0, b1, b2)(x)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.0, 1e4, allow_nan=False),
        b=st.one_of(
            st.floats(0.0, 1.0, allow_nan=False),
            st.sampled_from([0.0, 5e-324, 1e300]),
        ),
        x=st.integers(1, 10**6).map(float),
    )
    def test_energy_arithmetic_above_zero_samples(self, a, b, x):
        """The fit clamps both coefficients at +0.0, and the closure's
        ``n <= 0`` branch is off the shard grid."""
        assert bits(Curve(a, b, floor=0.0)(x)) == bits(
            _retired_energy_curve(a, b)(x)
        )


class TestCurveRowsIsTheTabulator:
    @settings(max_examples=120, deadline=None)
    @given(
        coefs=st.lists(
            st.tuples(coefficients, coefficients, coefficients, floors),
            min_size=1,
            max_size=3,
        ),
        n_shards=st.sampled_from([1, 64, 1137, 5000]),
        shard_size=shard_sizes,
    )
    @example(
        coefs=[(-40.0, 0.01, 0.0, TIME_FLOOR_S), (9.0, -0.001, 0.0, 0.0)],
        n_shards=64,
        shard_size=500,
    )
    @example(coefs=[(-0.0, -0.0, 0.0, -0.0)], n_shards=1, shard_size=1)
    @example(coefs=[(0.0, 0.0, 0.0, -0.0)], n_shards=1, shard_size=1)
    def test_rows_equal_build_cost_matrix(self, coefs, n_shards, shard_size):
        curves = [Curve(*c) for c in coefs]
        with np.errstate(over="ignore", invalid="ignore"):
            rows = curve_rows(curves, n_shards, shard_size)
        assert rows.shape == (len(curves), n_shards)
        # what build_cost_matrix computes before it validates
        cells = np.array(
            [
                [c(float((k + 1) * shard_size)) for k in range(n_shards)]
                for c in curves
            ]
        )
        assert (bits(rows) == bits(np.maximum.accumulate(cells, 1))).all()
        try:
            dense = build_cost_matrix(curves, n_shards, shard_size)
        except ValueError:
            # the tabulator refuses what a problem would: inf or < 0
            assert not (np.isfinite(rows).all() and (rows >= 0).all())
            return
        assert (bits(rows) == bits(dense)).all()

    def test_property1_and_the_floor_engage(self):
        """A dipping curve is lifted by the cummax; a negative-intercept
        one sits on its floor until the line crosses it."""
        rows = curve_rows(
            [Curve(9.0, -0.001, 1e-7), Curve(-40.0, 0.01)], 100, 500
        )
        dense = build_cost_matrix(
            [Curve(9.0, -0.001, 1e-7), Curve(-40.0, 0.01)], 100, 500
        )
        assert (bits(rows) == bits(dense)).all()
        assert (np.diff(rows, axis=1) >= 0).all()
        dipping = [Curve(9.0, -0.001, 1e-7)(500.0 * k) for k in (1, 2)]
        assert dipping[1] < dipping[0] == rows[0, 1]
        assert rows[1, :7].tolist() == [TIME_FLOOR_S] * 7
        assert rows[1, 8] > TIME_FLOOR_S

    @pytest.mark.parametrize("shard_size", [50, 500])
    @pytest.mark.parametrize("n_shards", [1, 64, 1137])
    def test_default_fleet_rows_equal_the_retired_broadcast(
        self, n_shards, shard_size
    ):
        clear_cost_cache()
        fleet = synthetic_fleet(64, seed=0)
        time_rows, energy_rows = fleet_class_matrices(
            fleet, n_shards, shard_size
        )
        time_ref, energy_ref = _retired_fleet_class_matrices(
            fleet, n_shards, shard_size
        )
        assert (bits(time_rows) == bits(time_ref)).all()
        assert (bits(energy_rows) == bits(energy_ref)).all()


class TestCurveIsAValue:
    def test_time_curve_alias(self):
        assert TimeCurve is Curve

    def test_frozen_and_floored(self):
        curve = Curve(-1.0, 0.5)
        assert curve(1.0) == TIME_FLOOR_S
        assert curve(4.0) == 1.0
        with pytest.raises(AttributeError):
            curve.base = 2.0  # type: ignore[misc]

    def test_pickle_round_trip(self):
        model = _lenet()
        curves = cached_time_curves(["nexus6p", "pixel2"], model) + (
            cached_energy_curves(["nexus6p"], model)
        )
        for curve in curves:
            back = pickle.loads(pickle.dumps(curve))
            assert back == curve and hash(back) == hash(curve)
            assert bits(back(750.0)) == bits(curve(750.0))

    def test_refit_after_clear_is_equal(self):
        model = _lenet()
        (time_a,) = cached_time_curves(["mate10"], model)
        (energy_a,) = cached_energy_curves(["mate10"], model)
        clear_cost_cache()
        (time_b,) = cached_time_curves(["mate10"], model)
        (energy_b,) = cached_energy_curves(["mate10"], model)
        assert time_a is not time_b and energy_a is not energy_b
        assert time_a == time_b and energy_a == energy_b


def _lenet():
    from repro.models.zoo import MNIST_SHAPE, build_model

    return build_model("lenet", input_shape=MNIST_SHAPE)
