"""Shared fixtures for the control-plane tests.

Everything here is deterministic: the service clock is a
:class:`~repro.serve.clock.ManualClock` the test advances by hand, the
fleet uses the hand-built toy device classes from the fleet tests (no
profiler probing), and the heartbeat monitor task is never started —
sweeps happen via explicit ``registry.check()`` calls.

Every event loop a test here starts runs in asyncio debug mode, and a
never-awaited coroutine (``RuntimeWarning``) or an unclosed socket,
transport or loop (``ResourceWarning``) is an error.
"""

import warnings

import pytest

from repro.fleet import DeviceClass, synthetic_fleet
from repro.serve import ManualClock, ServeApp, ServeConfig


def toy_classes():
    """Two classes with round-number affine coefficients."""
    return (
        DeviceClass(
            name="fast",
            time_base_s=1.0,
            time_per_sample_s=0.001,
            energy_base_j=2.0,
            energy_per_sample_j=0.004,
            capacity_j=10_000.0,
            idle_power_w=0.5,
            uplink_mbps=10.0,
            downlink_mbps=40.0,
            rtt_s=0.05,
            link="wifi",
        ),
        DeviceClass(
            name="slow",
            time_base_s=2.0,
            time_per_sample_s=0.004,
            energy_base_j=3.0,
            energy_per_sample_j=0.010,
            capacity_j=8_000.0,
            idle_power_w=0.8,
            uplink_mbps=2.0,
            downlink_mbps=8.0,
            rtt_s=0.1,
            link="lte",
        ),
    )


def toy_fleet(n=16, seed=0, **kwargs):
    return synthetic_fleet(n, seed=seed, classes=toy_classes(), **kwargs)


def make_app(n=16, clock=None, **config_kwargs):
    """A ServeApp on a manual clock over a toy fleet."""
    clock = clock if clock is not None else ManualClock()
    config = ServeConfig(
        fleet_size=n,
        shard_size=100,
        stale_after_s=10.0,
        dead_after_s=30.0,
        **config_kwargs,
    )
    app = ServeApp(config, now_fn=clock, fleet=toy_fleet(n))
    return app, clock


def register_n(app, n, data_size=600, battery_soc=1.0):
    """Register ``dev-000..`` and return their device ids."""
    ids = []
    for i in range(n):
        device_id = f"dev-{i:03d}"
        status, _ = app.handle_request(
            "POST",
            "/v1/devices/register",
            {
                "device_id": device_id,
                "data_size": data_size,
                "battery_soc": battery_soc,
            },
        )
        assert status == 201
        ids.append(device_id)
    return ids


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def app(clock):
    application, _ = make_app(clock=clock)
    return application


@pytest.fixture(autouse=True)
def asyncio_debug(monkeypatch):
    monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", ResourceWarning)
        # ... raised in a finalizer, they reach pytest as unraisable
        warnings.simplefilter("error", pytest.PytestUnraisableExceptionWarning)
        yield
