"""The two-step performance profiler (Sec. IV-B, Fig. 4).

**Step 1** — for each profiled data size ``d``, fit a multiple linear
regression of training time on ``(conv_params, dense_params)`` across
the measured architectures:

    y_i = b0 + b1 * x_conv + b2 * x_dense + e_i        (Eq. 1)

**Step 2** — given a (possibly unseen) model architecture, evaluate the
step-1 regressions at its parameter split to obtain one time estimate
per data size, then regress those estimates on data size. The result is
a per-device, per-model *time curve* ``T_j(n_samples)`` that the
scheduling algorithms consume.

Every fit returns a frozen :class:`Curve`; :func:`curve_rows` turns
curves into problem cost rows in one broadcast.

The default step-2 fit is linear, exactly as in the paper; a quadratic
option exists as an ablation because thermally-throttled devices
(Nexus 6P) have superlinear time-vs-data curves that a linear profile
underestimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..device.device import MobileDevice
from ..models.network import ParameterSplit, Sequential
from .regression import LinearRegressor
from .trace import ProfileMeasurement, measure_grid

__all__ = [
    "Curve", "DeviceProfile", "TIME_FLOOR_S", "TimeCurve",
    "bootstrap_curve", "build_profile", "curve_rows", "fit_time_curve",
]

#: the smallest time a curve predicts: a fit extrapolated below its
#: grid can dip under zero, and Property 1 wants positive costs
TIME_FLOOR_S = 1e-6


@dataclass(frozen=True)
class Curve:
    """A fitted cost curve, ``base + slope·x + curvature·x²`` seconds
    (or Joules) for ``x`` samples, never below ``floor``. Evaluated left
    to right, ``(curvature·x)·x`` last: problem rows' bits rely on it."""

    base: float
    slope: float
    curvature: float = 0.0
    floor: float = TIME_FLOOR_S

    def __call__(self, n_samples: float) -> float:
        t = self.base + self.slope * n_samples + self.curvature * n_samples * n_samples
        return t if t > self.floor else self.floor


#: a fitted time-vs-samples curve for one (device, model) pair
TimeCurve = Curve


def curve_rows(curves: Sequence[Curve], n_shards: int, shard_size: int) -> np.ndarray:
    """The ``(len(curves), n_shards)`` cost rows: cell ``[i, k]`` is
    ``curves[i]((k+1) * shard_size)``, the same IEEE operations in one
    broadcast, each row then made non-decreasing (Property 1)."""
    x = np.arange(1, n_shards + 1, dtype=np.float64) * float(shard_size)
    base, slope, curvature, floor = np.array(
        [(c.base, c.slope, c.curvature, c.floor) for c in curves],
        dtype=np.float64,
    ).T[:, :, None]
    t = base + slope * x + curvature * x * x
    return np.maximum.accumulate(np.where(t > floor, t, floor), axis=1)


@dataclass
class DeviceProfile:
    """Fitted profile of one device.

    ``step1`` maps each profiled data size to its fitted
    (conv, dense) -> time regressor. :meth:`time_curve` runs step 2 for
    a concrete architecture and returns its :class:`Curve`.
    """

    device_name: str
    data_sizes: Tuple[int, ...]
    step1: Dict[int, LinearRegressor]
    measurements: List[ProfileMeasurement] = field(default_factory=list)
    quadratic_step2: bool = False

    def predict_at_sizes(self, split: ParameterSplit) -> np.ndarray:
        """Step-1 estimates: one time per profiled data size."""
        x = np.array([split.as_tuple()], dtype=np.float64)
        return np.array(
            [float(self.step1[d].predict(x)[0]) for d in self.data_sizes]
        )

    def fit_step2(self, split: ParameterSplit) -> LinearRegressor:
        """Step-2 regression of step-1 estimates on data size."""
        y = self.predict_at_sizes(split)
        x = np.asarray(self.data_sizes, dtype=np.float64).reshape(-1, 1)
        return LinearRegressor(quadratic=self.quadratic_step2).fit(x, y)

    def time_curve(self, model: Sequential) -> Curve:
        """``T(n_samples)`` for a model on this device: the step-2
        coefficients, floored at :data:`TIME_FLOOR_S`."""
        return _fitted(self.fit_step2(model.param_split()))

    def step1_r2(self) -> Dict[int, float]:
        """Goodness of fit of each step-1 hyperplane on its own data."""
        return {
            d: self.step1[d].r2(*_step1_data(self.measurements, d))
            for d in self.data_sizes
        }


def _step1_data(
    measurements: Sequence[ProfileMeasurement], n_samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Step 1's regressors ``(conv, dense)`` and times at one size."""
    ms = [m for m in measurements if m.n_samples == n_samples]
    x = np.array([(m.conv_params, m.dense_params) for m in ms], dtype=np.float64)
    return x, np.array([m.time_s for m in ms])


def build_profile(
    device: MobileDevice,
    models: Sequence[Sequential],
    data_sizes: Sequence[int],
    batch_size: int = 20,
    quadratic_step2: bool = False,
) -> DeviceProfile:
    """Measure a model/data-size grid on a device and fit step 1.

    At least three architectures are required per data size (the step-1
    hyperplane has three coefficients).
    """
    if len(models) < 3:
        raise ValueError("step-1 regression needs at least 3 architectures")
    measurements = measure_grid(device, models, data_sizes, batch_size=batch_size)
    return DeviceProfile(
        device_name=device.spec.name,
        data_sizes=tuple(int(d) for d in data_sizes),
        step1={
            int(d): LinearRegressor().fit(*_step1_data(measurements, d))
            for d in data_sizes
        },
        measurements=measurements,
        quadratic_step2=quadratic_step2,
    )


def bootstrap_curve(
    device: MobileDevice,
    model: Sequential,
    data_sizes: Sequence[int],
    batch_size: int = 20,
    quadratic: bool = False,
) -> Curve:
    """Online-bootstrap profile: measure *this* model at several sizes
    and fit time vs data size directly (the paper's "online through a
    bootstrapping phase" profiling path, Sec. IV-B).

    Skips step 1 — no cross-architecture generalisation, but the most
    accurate curve for a known model, which is what the scheduling
    experiments feed to Fed-LBAP / Fed-MinAvg.
    """
    measurements = measure_grid(device, [model], data_sizes, batch_size=batch_size)
    return fit_time_curve(
        [m.n_samples for m in measurements],
        [m.time_s for m in measurements],
        quadratic=quadratic,
    )


def _check_grid(sizes: Sequence[float], coefficients: int) -> None:
    """``ValueError`` naming the grid unless it holds at least
    ``coefficients`` distinct sizes: with fewer, a least-squares fit
    has no unique solution."""
    if len(set(sizes)) < coefficients:
        raise ValueError(
            f"a fit of {coefficients} coefficients needs as many distinct "
            f"sizes, not the grid {np.asarray(sizes).tolist()}"
        )


def fit_time_curve(
    sizes: Sequence[float], seconds: Sequence[float], quadratic: bool = False
) -> Curve:
    """The least-squares :class:`Curve` through measured ``(sizes[i],
    seconds[i])`` points, linear or ``quadratic`` in samples, floored at
    :data:`TIME_FLOOR_S`. Points keep their order (it moves the low
    bits); a size may repeat."""
    _check_grid(sizes, 3 if quadratic else 2)
    x = np.array([[float(n)] for n in sizes], dtype=np.float64)
    y = np.asarray(seconds, dtype=np.float64)
    return _fitted(LinearRegressor(quadratic=quadratic).fit(x, y))


def _fitted(reg: LinearRegressor) -> Curve:
    """The :class:`Curve` of a fitted time-vs-samples regression."""
    coef = [float(c) for c in reg.coef_]
    return Curve(reg.intercept_, coef[0], coef[1] if reg.quadratic else 0.0)
