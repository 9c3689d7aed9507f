"""Performance profiling substrate: the paper's two-step linear
regression from (model parameters, data size) to training time."""

from .profiler import TIME_FLOOR_S, Curve, TimeCurve, curve_rows
from .profiler import DeviceProfile, bootstrap_curve, build_profile
from .online import OnlineTimeProfile
from .regression import LinearRegressor
from .trace import ProfileMeasurement, measure_grid

__all__ = [
    "Curve",
    "DeviceProfile",
    "TIME_FLOOR_S",
    "TimeCurve",
    "build_profile",
    "bootstrap_curve",
    "curve_rows",
    "LinearRegressor",
    "OnlineTimeProfile",
    "ProfileMeasurement",
    "measure_grid",
]
