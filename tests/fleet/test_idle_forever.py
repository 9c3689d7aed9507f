"""Idling forever at 0 W drains nothing.

``FleetStore.idle`` documents that an infinite wait drains a battery to
empty; a class with no idle draw (a phone on mains) drains nothing
however long it waits. The product ``0 W * inf s`` is NaN, so each form
must keep it out of the battery: the mask form, the index form,
``idle_one`` and the ``FleetDevice.idle`` view that calls it.
"""

import dataclasses

import numpy as np
import pytest

from repro.fleet import synthetic_fleet
from repro.fleet.store import _BLOCK

from .conftest import toy_classes

INF = float("inf")


def _mains_fleet(n, seed=0):
    """Row classes ``fast`` at 0 W idle and ``slow`` at 0.8 W."""
    fast, slow = toy_classes()
    classes = (dataclasses.replace(fast, idle_power_w=0.0), slow)
    return synthetic_fleet(n, seed=seed, classes=classes)


def _expected_after_forever(store, rows):
    """Batteries after an infinite wait of ``rows``: empty where the
    class draws power, untouched where it draws none."""
    out = store.battery_j.copy()
    draws = store._idle_power_row > 0
    out[rows & draws] = 0.0
    return out


@pytest.fixture
def store():
    store = _mains_fleet(64, seed=3)
    # both classes present, and one half-drained row of each
    assert set(store.class_id.tolist()) == {0, 1}
    store.battery_j[:2] *= 0.5
    return store


class TestForever:
    def test_the_mask_form(self, store):
        mask = np.ones(store.n, dtype=bool)
        mask[::5] = False
        expected = _expected_after_forever(store, mask)
        store.idle(mask, INF)
        assert not np.isnan(store.battery_j).any()
        assert store.battery_j.tobytes() == expected.tobytes()

    def test_the_mask_form_across_blocks(self):
        store = _mains_fleet(3 * _BLOCK + 17, seed=4)
        mask = np.random.default_rng(4).random(store.n) < 0.9
        expected = _expected_after_forever(store, mask)
        store.idle(mask, INF)
        assert store.battery_j.tobytes() == expected.tobytes()

    def test_the_index_form(self, store):
        rows = np.arange(0, store.n, 2)
        waits = np.full(rows.size, INF)
        waits[::3] = 10.0  # finite waits next to the infinite ones
        picked = np.zeros(store.n, dtype=bool)
        picked[rows[waits == INF]] = True
        expected = _expected_after_forever(store, picked)
        finite = rows[waits != INF]
        power = store._idle_power_row[finite]
        expected[finite] -= np.minimum(power * 10.0, store.battery_j[finite])
        store.idle(rows, waits)
        assert not np.isnan(store.battery_j).any()
        assert store.battery_j.tobytes() == expected.tobytes()

    def test_idle_one(self, store):
        for j in range(store.n):
            before = store.battery_j[j]
            store.idle_one(j, INF)
            if store._idle_power_row[j] == 0.0:
                assert store.battery_j[j] == before
            else:
                assert store.battery_j[j] == 0.0

    def test_the_device_view(self, store):
        mask = np.ones(store.n, dtype=bool)
        expected = _expected_after_forever(store, mask)
        for device in store.as_devices():
            device.idle(INF)
        assert store.battery_j.tobytes() == expected.tobytes()


class TestFiniteWaitsUnchanged:
    @pytest.mark.parametrize("seconds", [0.0, -0.0, 1e-300, 3600.0, 1e300])
    def test_every_form_is_the_plain_product(self, store, seconds):
        """A finite wait is ``minimum(power * seconds, battery)``, also at
        0 W, whichever form runs it."""
        power = store._idle_power_row
        expected = store.battery_j - np.minimum(
            power * np.float64(seconds), store.battery_j
        )
        by_mask, by_index, by_one = store.copy(), store.copy(), store.copy()
        by_mask.idle(np.ones(store.n, dtype=bool), seconds)
        by_index.idle(np.arange(store.n), np.full(store.n, seconds))
        for j in range(store.n):
            by_one.idle_one(j, seconds)
        for got in (by_mask, by_index, by_one):
            assert got.battery_j.tobytes() == expected.tobytes()
