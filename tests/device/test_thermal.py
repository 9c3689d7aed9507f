"""Thermal model tests: RC dynamics, trip hysteresis, sustained-load
stages."""

import math

import pytest

from repro.device.specs import ThermalSpec, TripPoint
from repro.device.thermal import ThermalState


def make_state(**kw):
    base = dict(
        ambient_c=25.0, r_thermal_c_per_w=10.0, tau_s=30.0, trip_points=()
    )
    base.update(kw)
    return ThermalState(ThermalSpec(**base))


class TestRCDynamics:
    def test_steady_state(self):
        st = make_state()
        for _ in range(100):
            st.update(2.0, 10.0)
        assert st.temp_c == pytest.approx(25 + 10 * 2.0, abs=0.01)

    def test_exact_exponential_step(self):
        """One big step equals many small steps (exact integrator)."""
        a = make_state()
        a.update(3.0, 60.0)
        b = make_state()
        for _ in range(600):
            b.update(3.0, 0.1)
        assert a.temp_c == pytest.approx(b.temp_c, abs=1e-9)

    def test_analytic_solution(self):
        st = make_state()
        st.update(2.0, 30.0)  # one tau
        expected = 25 + 20 * (1 - math.exp(-1.0))
        assert st.temp_c == pytest.approx(expected, abs=1e-9)

    def test_cooling_toward_ambient(self):
        st = make_state()
        st.temp_c = 60.0
        st.update(0.0, 300.0)
        assert st.temp_c == pytest.approx(25.0, abs=0.01)

    def test_reset(self):
        st = make_state()
        st.update(5.0, 100.0)
        st.reset()
        assert st.temp_c == 25.0
        assert st.load_time_s == 0.0

    def test_validation(self):
        st = make_state()
        with pytest.raises(ValueError):
            st.update(-1.0, 1.0)
        with pytest.raises(ValueError):
            st.update(1.0, -1.0)


class TestTrips:
    def trip_state(self):
        return make_state(
            trip_points=(
                TripPoint(
                    temp_on=40.0,
                    temp_off=35.0,
                    cluster="big",
                    offline=True,
                ),
            )
        )

    def test_engages_above_on(self):
        st = self.trip_state()
        st.update(5.0, 300.0)  # steady 75C
        assert st.is_throttling()
        assert not st.throttle()["big"].online

    def test_hysteresis(self):
        st = self.trip_state()
        st.update(5.0, 300.0)
        # Cool to between off and on: stays engaged.
        st.temp_c = 37.0
        st._refresh_trips()
        assert st.is_throttling()
        st.temp_c = 34.0
        st._refresh_trips()
        assert not st.is_throttling()

    def test_multiple_trips_compose(self):
        st = make_state(
            trip_points=(
                TripPoint(40.0, 35.0, "big", freq_cap_factor=0.8),
                TripPoint(45.0, 38.0, "big", freq_cap_factor=0.5),
            )
        )
        st.update(5.0, 1000.0)  # hot: both engaged
        assert st.throttle()["big"].freq_cap_factor == pytest.approx(0.5)

    def test_rate_factor_composes(self):
        st = make_state(
            trip_points=(
                TripPoint(40.0, 35.0, "little", rate_factor=0.1),
            )
        )
        st.update(5.0, 1000.0)
        assert st.throttle()["little"].rate_factor == pytest.approx(0.1)


class TestSustainedTrips:
    def sustained_state(self):
        return make_state(
            trip_points=(
                TripPoint(
                    temp_on=30.0,
                    temp_off=26.0,
                    cluster="little",
                    rate_factor=0.05,
                    sustained_s=100.0,
                ),
            )
        )

    def test_not_engaged_before_horizon(self):
        st = self.sustained_state()
        st.update(5.0, 50.0, loaded=True)  # hot but only 50s of load
        assert not st.is_throttling()

    def test_engages_after_horizon(self):
        st = self.sustained_state()
        for _ in range(30):
            st.update(5.0, 5.0, loaded=True)
        assert st.load_time_s == pytest.approx(150.0)
        assert st.is_throttling()

    def test_idle_cooldown_resets_stopwatch(self):
        st = self.sustained_state()
        for _ in range(30):
            st.update(5.0, 5.0, loaded=True)
        # Long idle: cools to ambient, stopwatch resets.
        for _ in range(20):
            st.update(0.0, 30.0, loaded=False)
        assert st.load_time_s == 0.0

    def test_idle_without_cooling_keeps_stopwatch(self):
        st = self.sustained_state()
        st.update(5.0, 50.0, loaded=True)
        st.update(5.0, 1.0, loaded=False)  # still hot
        assert st.load_time_s == pytest.approx(50.0)


@pytest.mark.parametrize(
    "power_w, dt, message",
    [
        (float("nan"), 0.5, "power must be non-negative"),
        (1.0, float("nan"), "dt must be non-negative"),
    ],
)
def test_nan_update_rejected_and_temperature_kept(power_w, dt, message):
    """NaN fails the non-negative guards instead of slipping past them."""
    st = make_state()
    with pytest.raises(ValueError, match=message):
        st.update(power_w, dt)
    assert st.temp_c == 25.0
