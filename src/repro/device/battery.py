"""Battery energy accounting.

Federated training is a sustained multi-watt workload; the paper's
capacity constraint C_j in problem P2 "can be quantified by the storage
or battery energy" (Sec. VI-A). The battery model tracks drained energy
so experiments can translate an energy budget into a shard capacity and
detect devices that would die mid-round.
"""

from __future__ import annotations

from .specs import BatterySpec

__all__ = ["BatteryState", "BatteryDepletedError"]


class BatteryDepletedError(RuntimeError):
    """Raised when a drain request exceeds the remaining charge."""


class BatteryState:
    """Mutable state-of-charge tracker."""

    def __init__(self, spec: BatterySpec, initial_soc: float = 1.0) -> None:
        if not 0.0 <= initial_soc <= 1.0:
            raise ValueError("initial_soc must be in [0, 1]")
        self.spec = spec
        self._energy_j = spec.energy_j * initial_soc

    @property
    def remaining_j(self) -> float:
        return self._energy_j

    @property
    def soc(self) -> float:
        """State of charge in [0, 1]."""
        return self._energy_j / self.spec.energy_j

    def reset(self, soc: float = 1.0) -> None:
        if not 0.0 <= soc <= 1.0:
            raise ValueError("soc must be in [0, 1]")
        self._energy_j = self.spec.energy_j * soc

    def drain(self, power_w: float, dt: float, strict: bool = False) -> float:
        """Consume ``power_w * dt`` joules; returns energy actually drawn.

        With ``strict`` a drain past empty raises
        :class:`BatteryDepletedError`; otherwise the battery floors at
        zero (the device would have shut down — callers can check
        :attr:`soc`).
        """
        if not (power_w >= 0 and dt >= 0):
            raise ValueError("power and dt must be non-negative")
        drawn = self.draw(power_w, dt)
        if strict and drawn < power_w * dt:
            raise BatteryDepletedError(
                f"needed {power_w * dt:.1f} J but only {self._energy_j:.1f} J left"
            )
        self._energy_j -= drawn
        return drawn

    def draw(self, power_w: float, dt: float) -> float:
        """The joules :meth:`drain` would draw now, without drawing
        them: ``power_w * dt``, or all that is left when that is more."""
        need = power_w * dt
        return self._energy_j if need > self._energy_j else need

    def seconds_at_power(self, power_w: float) -> float:
        """How long the remaining charge lasts at constant power."""
        if power_w <= 0:
            raise ValueError("power must be positive")
        return self._energy_j / power_w
