"""A cost curve is a pure fit over its profile cells.

The differential: over every registered phone and random grids
(unsorted, duplicates allowed), the time fit over the cells equals
``bootstrap_curve`` measuring a fresh jitter-free phone, and the
energy fit equals the device-path fit it replaced (one
``energy_for_samples`` per size, then ``polyfit``) — ``.hex()`` for
``.hex()`` on every :class:`Curve` field. A grid with fewer distinct
sizes than the fit has coefficients is refused, naming the grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.device import MobileDevice
from repro.device.energy import energy_for_samples
from repro.device.registry import DEVICE_NAMES, build_spec, make_device
from repro.device.workload import TrainingWorkload
from repro.models.flops import model_training_flops
from repro.models.zoo import MNIST_SHAPE, build_model
from repro.profiling import Curve, bootstrap_curve, fit_time_curve
from repro.sched.costs import (
    cached_energy_curves,
    cached_time_curves,
    clear_cost_cache,
)

LENET = build_model("lenet", input_shape=MNIST_SHAPE)


def _bits(curve):
    return tuple(
        float(getattr(curve, f)).hex()
        for f in ("base", "slope", "curvature", "floor")
    )


def _grids(distinct):
    """Whole sizes up to 12 000, unsorted, duplicates allowed, at least
    ``distinct`` of them different."""
    return st.lists(
        st.integers(1, 12_000), min_size=distinct, max_size=7
    ).filter(lambda g: len(set(g)) >= distinct)


def _retired_energy_curve(name, model, sizes, batch_size=20):
    """The energy fit as it ran on a device: a cold run per size."""
    device = make_device(name, jitter=0.0)
    x = np.array([float(d) for d in sizes])
    y = np.array(
        [energy_for_samples(device, model, d, batch_size=batch_size) for d in sizes]
    )
    slope, intercept = np.polyfit(x, y, 1)
    return Curve(max(float(intercept), 0.0), max(float(slope), 0.0), floor=0.0)


def _cold_seconds(name, model, sizes, batch_size=20):
    """Each size's cold-start seconds, read off one pass."""
    workload = TrainingWorkload(
        flops_per_sample=model_training_flops(model),
        n_samples=0,
        batch_size=batch_size,
        model_name=model.name,
    )
    distinct = sorted(set(sizes))
    traces = MobileDevice(build_spec(name), jitter=0.0).cold_runs(workload, distinct)
    seconds = {n: t.total_time_s for n, t in zip(distinct, traces)}
    return [seconds[n] for n in sizes]


class TestFitsEqualTheDevicePath:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(DEVICE_NAMES), grid=_grids(2))
    def test_linear_time_curve(self, name, grid):
        clear_cost_cache()
        want = _bits(bootstrap_curve(make_device(name, jitter=0.0), LENET, grid))
        (cached,) = cached_time_curves([name], LENET, grid)
        direct = fit_time_curve(grid, _cold_seconds(name, LENET, grid))
        assert _bits(cached) == _bits(direct) == want

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(DEVICE_NAMES), grid=_grids(3))
    def test_quadratic_time_curve(self, name, grid):
        device = make_device(name, jitter=0.0)
        want = bootstrap_curve(device, LENET, grid, quadratic=True)
        got = fit_time_curve(grid, _cold_seconds(name, LENET, grid), quadratic=True)
        assert _bits(got) == _bits(want)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(DEVICE_NAMES), grid=_grids(2))
    def test_energy_curve(self, name, grid):
        clear_cost_cache()
        (got,) = cached_energy_curves([name], LENET, grid)
        assert _bits(got) == _bits(_retired_energy_curve(name, LENET, grid))


class TestAGridMustIdentifyItsFit:
    @pytest.mark.parametrize("grid", [(500,), (500, 500)])
    def test_energy_fit(self, grid):
        clear_cost_cache()
        with pytest.raises(ValueError, match=r"\[500(, 500)?\]"):
            cached_energy_curves(["pixel2"], LENET, grid)

    @pytest.mark.parametrize("grid", [(500,), (500, 500)])
    def test_cached_time_fit(self, grid):
        clear_cost_cache()
        with pytest.raises(ValueError, match=r"\[500(, 500)?\]"):
            cached_time_curves(["pixel2"], LENET, grid)

    @pytest.mark.parametrize(
        "grid, quadratic",
        [((500, 500), False), ((500, 3000, 500), True), ((1.5, 1.5, 2.5), True)],
    )
    def test_time_fit(self, grid, quadratic):
        with pytest.raises(ValueError, match="distinct sizes"):
            fit_time_curve(grid, [1.0] * len(grid), quadratic=quadratic)

    def test_bootstrap_curve(self):
        device = make_device("pixel2", jitter=0.0)
        with pytest.raises(ValueError, match=r"\[700, 700\]"):
            bootstrap_curve(device, LENET, (700, 700))
