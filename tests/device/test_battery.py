"""Battery model tests."""

import pytest

from repro.device.battery import BatteryDepletedError, BatteryState
from repro.device.specs import BatterySpec


@pytest.fixture
def battery():
    return BatteryState(BatterySpec(capacity_mah=1000, voltage_v=4.0))


class TestBattery:
    def test_full_at_start(self, battery):
        assert battery.soc == 1.0
        assert battery.remaining_j == pytest.approx(14_400.0)

    def test_drain_reduces_soc(self, battery):
        battery.drain(power_w=2.0, dt=3600.0)
        assert battery.remaining_j == pytest.approx(14_400 - 7200)
        assert battery.soc == pytest.approx(0.5)

    def test_drain_floors_at_zero(self, battery):
        drawn = battery.drain(power_w=10.0, dt=1e6)
        assert drawn == pytest.approx(14_400.0)
        assert battery.soc == 0.0

    def test_strict_drain_raises(self, battery):
        with pytest.raises(BatteryDepletedError):
            battery.drain(power_w=10.0, dt=1e6, strict=True)

    def test_seconds_at_power(self, battery):
        assert battery.seconds_at_power(2.0) == pytest.approx(7200.0)
        with pytest.raises(ValueError):
            battery.seconds_at_power(0.0)

    def test_reset_to_partial_soc(self, battery):
        battery.reset(0.25)
        assert battery.soc == pytest.approx(0.25)
        with pytest.raises(ValueError):
            battery.reset(1.5)

    def test_negative_drain_rejected(self, battery):
        with pytest.raises(ValueError):
            battery.drain(-1.0, 1.0)


@pytest.mark.parametrize("power_w, dt", [(float("nan"), 1.0), (1.0, float("nan"))])
def test_nan_drain_rejected_and_charge_kept(battery, power_w, dt):
    """NaN fails the non-negative guard instead of slipping past it."""
    with pytest.raises(ValueError, match="power and dt must be non-negative"):
        battery.drain(power_w, dt)
    assert battery.soc == 1.0
