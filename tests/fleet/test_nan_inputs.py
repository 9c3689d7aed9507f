"""NaN never reaches a battery column.

``battery_j -= minimum(power * NaN, battery_j)`` writes NaN, and a NaN
charge is neither empty nor eligible nor anything a later round can
repair — one NaN idle call used to turn every bystander's battery into
NaN. Idle time and the device-class constants are checked so that NaN
fails the check, with the errors negative values already raised; the
scalar and vector forms raise alike. ``inf`` seconds stays legal and
drains to empty.
"""

import math

import numpy as np
import pytest

from repro.fleet import DeviceClass, synthetic_fleet

from .conftest import toy_classes, toy_fleet


def test_nan_idle_in_the_mask_form_leaves_the_fleet_alone():
    fleet = synthetic_fleet(10)
    before = fleet.battery_j.copy()
    with pytest.raises(ValueError, match="non-negative"):
        fleet.idle(np.ones(10, dtype=bool), math.nan)
    assert fleet.battery_j.tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda f: f.idle(np.ones(f.n, dtype=bool), np.nan),
        lambda f: f.idle(np.array([0, 3]), np.array([1.0, np.nan])),
        lambda f: f.idle(np.array([2]), np.array([np.nan])),
        lambda f: f.idle_one(4, math.nan),
        lambda f: f.as_devices()[5].idle(math.nan),
    ],
    ids=["mask", "index", "index-one", "idle_one", "device-view"],
)
def test_every_idle_form_refuses_nan(call):
    fleet = toy_fleet(n=8)
    before = fleet.battery_j.copy()
    with pytest.raises(ValueError, match="seconds must be non-negative"):
        call(fleet)
    assert fleet.battery_j.tobytes() == before.tobytes()


def test_scalar_and_vector_forms_raise_alike():
    messages = []
    for call in (
        lambda f: f.idle(np.ones(f.n, dtype=bool), -1.0),
        lambda f: f.idle(np.ones(f.n, dtype=bool), np.nan),
        lambda f: f.idle(np.array([1]), np.array([np.nan])),
        lambda f: f.idle_one(1, -1.0),
        lambda f: f.idle_one(1, np.nan),
    ):
        with pytest.raises(ValueError) as caught:
            call(toy_fleet(n=4))
        messages.append(str(caught.value))
    assert len(set(messages)) == 1


def test_inf_idle_drains_to_empty():
    fleet = toy_fleet(n=8)
    mask = np.zeros(8, dtype=bool)
    mask[:4] = True
    before = fleet.battery_j.copy()
    fleet.idle(mask, math.inf)
    assert (fleet.battery_j[:4] == 0.0).all()
    assert fleet.battery_j[4:].tobytes() == before[4:].tobytes()
    fleet.idle(np.array([4, 5]), np.array([math.inf, 1.0]))
    assert fleet.battery_j[4] == 0.0 and 0.0 < fleet.battery_j[5]
    fleet.idle_one(6, math.inf)
    assert fleet.battery_j[6] == 0.0
    assert not np.isnan(fleet.battery_j).any()


@pytest.mark.parametrize(
    "field",
    [
        "time_base_s",
        "time_per_sample_s",
        "energy_base_j",
        "energy_per_sample_j",
        "capacity_j",
        "idle_power_w",
        "uplink_mbps",
        "downlink_mbps",
        "rtt_s",
    ],
)
def test_device_class_refuses_nan_constants(field):
    fields = dict(toy_classes()[0].__dict__)
    DeviceClass(**fields)  # the toy class itself is fine
    fields[field] = math.nan
    with pytest.raises(ValueError, match="non-negative|positive"):
        DeviceClass(**fields)
