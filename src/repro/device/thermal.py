"""Lumped-RC thermal model and trip-point throttling.

Die temperature follows a first-order RC network:

    dT/dt = (T_ss - T) / tau,   T_ss = ambient + R_th * P

where ``P`` is the instantaneous package power. Trip points implement
the vendor thermal drivers: each trip engages when the temperature
crosses ``temp_on`` and releases (with hysteresis) below ``temp_off``.
A trip can cap a cluster's frequency or take it offline entirely — the
Snapdragon-810 core-shutdown behaviour that makes the Nexus 6P the
paper's canonical straggler (Observation 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .specs import ThermalSpec, TripPoint

__all__ = ["ThermalState", "ThrottleDecision"]


@dataclass
class ThrottleDecision:
    """Per-cluster throttling output for one control interval."""

    freq_cap_factor: float = 1.0
    online: bool = True
    rate_factor: float = 1.0


class ThermalState:
    """Mutable thermal simulation state for one device."""

    def __init__(self, spec: ThermalSpec) -> None:
        self.spec = spec
        self.temp_c = spec.ambient_c
        # Engagement state per trip point index (hysteresis memory).
        self._engaged: List[bool] = [False] * len(spec.trip_points)
        #: continuous-load stopwatch for sustained-load trips
        self.load_time_s = 0.0

    def reset(self) -> None:
        """Cool back to ambient and release all trips."""
        self.temp_c = self.spec.ambient_c
        self._engaged = [False] * len(self.spec.trip_points)
        self.load_time_s = 0.0

    def update(self, power_w: float, dt: float, loaded: bool = True) -> float:
        """Advance temperature by ``dt`` seconds under ``power_w``.

        Uses the exact exponential step of the RC ODE, so accuracy does
        not depend on the control-interval size. ``loaded`` feeds the
        sustained-load stopwatch: idle periods long enough to cool the
        die to near ambient reset it (the throttling episode ends).
        """
        if not dt >= 0:
            raise ValueError("dt must be non-negative")
        if not power_w >= 0:
            raise ValueError("power must be non-negative")
        t_ss = self.spec.ambient_c + self.spec.r_thermal_c_per_w * power_w
        decay = math.exp(-dt / self.spec.tau_s)
        self.temp_c = t_ss + (self.temp_c - t_ss) * decay
        if loaded:
            self.load_time_s += dt
        elif self.temp_c <= self.spec.ambient_c + 1.0:
            self.load_time_s = 0.0
        self._refresh_trips()
        return self.temp_c

    def _refresh_trips(self) -> None:
        for i, trip in enumerate(self.spec.trip_points):
            if self._engaged[i]:
                if self.temp_c < trip.temp_off:
                    self._engaged[i] = False
            elif self.temp_c >= trip.temp_on:
                if (
                    trip.sustained_s is None
                    or self.load_time_s >= trip.sustained_s
                ):
                    self._engaged[i] = True

    def engaged_trips(self) -> Tuple[TripPoint, ...]:
        """Trip points currently active."""
        return tuple(
            t
            for t, on in zip(self.spec.trip_points, self._engaged)
            if on
        )

    def throttle(self) -> Dict[str, ThrottleDecision]:
        """Aggregate active trips into one decision per cluster name.

        Multiple trips on the same cluster compose: the tightest
        frequency cap wins and any offline trip forces offline.
        """
        decisions: Dict[str, ThrottleDecision] = {}
        for trip in self.engaged_trips():
            d = decisions.setdefault(trip.cluster, ThrottleDecision())
            d.freq_cap_factor = min(d.freq_cap_factor, trip.freq_cap_factor)
            d.online = d.online and not trip.offline
            d.rate_factor = min(d.rate_factor, trip.rate_factor)
        return decisions

    def is_throttling(self) -> bool:
        return any(self._engaged)
