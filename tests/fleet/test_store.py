"""FleetStore: columns, scalar/vector parity, views, builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DEFAULT_CLASS_LINKS,
    DeviceClass,
    FleetDevice,
    FleetLink,
    FleetStore,
    FleetTrace,
    default_device_classes,
    device_class_from_name,
    synthetic_fleet,
)

from .conftest import toy_classes, toy_fleet


class TestDeviceClass:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DeviceClass(
                name="bad",
                time_base_s=-1.0,
                time_per_sample_s=0.001,
                energy_base_j=1.0,
                energy_per_sample_j=0.001,
                capacity_j=100.0,
                idle_power_w=0.1,
                uplink_mbps=1.0,
                downlink_mbps=1.0,
                rtt_s=0.01,
            )

    def test_capacity_and_bandwidth_must_be_positive(self):
        base = dict(
            name="bad",
            time_base_s=1.0,
            time_per_sample_s=0.001,
            energy_base_j=1.0,
            energy_per_sample_j=0.001,
            capacity_j=100.0,
            idle_power_w=0.1,
            uplink_mbps=1.0,
            downlink_mbps=1.0,
            rtt_s=0.01,
        )
        with pytest.raises(ValueError, match="capacity"):
            DeviceClass(**{**base, "capacity_j": 0.0})
        with pytest.raises(ValueError, match="bandwidth"):
            DeviceClass(**{**base, "uplink_mbps": 0.0})

    def test_signature_carries_cost_identity(self, classes):
        fast = classes[0]
        sig = fast.signature()
        assert sig[0] == "fast"
        assert fast.time_base_s in sig
        assert fast.rtt_s in sig
        # capacity is battery state, not cost identity
        assert fast.capacity_j not in sig


class TestFleetStoreColumns:
    def test_column_shapes_and_dtypes(self, fleet):
        n = fleet.n
        assert fleet.class_id.shape == (n,)
        assert fleet.class_id.dtype == np.int32
        assert fleet.data_size.dtype == np.int64
        assert fleet.battery_j.dtype == np.float64
        assert fleet.capacity_j.shape == (n,)
        assert fleet.alive.dtype == bool
        assert fleet.alive.all()

    def test_validation(self, classes):
        cid = np.zeros(4, dtype=np.int32)
        size = np.full(4, 100, dtype=np.int64)
        with pytest.raises(ValueError, match="at least one"):
            FleetStore((), cid, size)
        with pytest.raises(ValueError, match="out of range"):
            FleetStore(classes, np.full(4, 7), size)
        with pytest.raises(ValueError, match="align"):
            FleetStore(classes, cid, size[:2])
        with pytest.raises(ValueError, match="non-negative"):
            FleetStore(classes, cid, size - 200)
        with pytest.raises(ValueError, match="battery_j"):
            FleetStore(classes, cid, size, battery_j=size * 1e9)

    def test_battery_defaults_to_full_charge(self, classes):
        store = FleetStore(
            classes,
            np.array([0, 1], dtype=np.int32),
            np.array([100, 100], dtype=np.int64),
        )
        assert np.array_equal(store.battery_j, store.capacity_j)
        assert store.soc_one(0) == 1.0

    def test_columns_are_owned_copies(self, classes):
        cid = np.array([0, 1], dtype=np.int32)
        size = np.array([100, 200], dtype=np.int64)
        store = FleetStore(classes, cid, size)
        size[0] = 999
        assert store.data_size[0] == 100

    def test_copy_is_independent(self, fleet):
        clone = fleet.copy()
        clone.battery_j[:] = 0.0
        clone.alive[:] = False
        assert fleet.battery_j.sum() > 0
        assert fleet.alive.all()


class TestBatteryAndEligibility:
    def test_soc_vector_matches_scalar(self, fleet):
        soc = fleet.soc()
        for j in range(fleet.n):
            assert soc[j] == fleet.soc_one(j)

    def test_soc_indexed_subset(self, fleet):
        idx = np.array([1, 5, 7])
        assert np.array_equal(fleet.soc(idx), fleet.soc()[idx])

    def test_eligible_mask_zero_floor_is_alive(self, fleet):
        fleet.battery_j[:] = 0.0
        mask = fleet.eligible_mask(0.0)
        assert mask.all()
        mask[:] = False  # a copy, not the store's column
        assert fleet.alive.all()

    def test_eligible_mask_gates_on_soc_and_alive(self, classes):
        store = FleetStore(
            classes,
            np.zeros(3, dtype=np.int32),
            np.full(3, 100, dtype=np.int64),
        )
        store.battery_j[:] = store.capacity_j * np.array([0.1, 0.5, 0.9])
        store.alive[2] = False
        assert store.eligible_mask(0.25).tolist() == [False, True, False]


class TestComputeAndComm:
    def test_compute_time_is_affine(self, classes):
        store = FleetStore(
            classes,
            np.array([0, 1], dtype=np.int32),
            np.array([1000, 1000], dtype=np.int64),
        )
        idx = np.array([0, 1])
        t = store.compute_time_s(idx, np.array([1000.0, 1000.0]))
        assert t[0] == pytest.approx(1.0 + 0.001 * 1000)
        assert t[1] == pytest.approx(2.0 + 0.004 * 1000)
        # epochs scale the samples
        t2 = store.compute_time_s(idx, np.array([1000.0, 1000.0]), epochs=2)
        assert t2[0] == pytest.approx(1.0 + 0.001 * 2000)

    def test_run_compute_drains_battery(self, classes):
        store = FleetStore(
            classes,
            np.array([0], dtype=np.int32),
            np.array([1000], dtype=np.int64),
        )
        before = store.battery_j[0]
        t, e = store.run_compute(np.array([0]), np.array([500.0]))
        assert e[0] == pytest.approx(2.0 + 0.004 * 500)
        assert store.battery_j[0] == pytest.approx(before - e[0])
        assert t[0] == pytest.approx(1.0 + 0.001 * 500)

    def test_run_compute_floors_at_empty(self, classes):
        store = FleetStore(
            classes,
            np.array([0], dtype=np.int32),
            np.array([1000], dtype=np.int64),
            battery_j=np.array([1.0]),
        )
        _, e = store.run_compute(np.array([0]), np.array([500.0]))
        assert e[0] == pytest.approx(1.0)  # capped at what was left
        assert store.battery_j[0] == 0.0

    def test_scalar_compute_is_bit_identical(self, fleet):
        clone = fleet.copy()
        idx = np.arange(fleet.n)
        samples = fleet.data_size.astype(np.float64)
        t_vec, e_vec = fleet.run_compute(idx, samples, epochs=2)
        for j in range(clone.n):
            t1, e1 = clone.run_compute_one(
                j, int(samples[j]), epochs=2
            )
            assert t1 == t_vec[j]  # bit-identical, not approx
            assert e1 == e_vec[j]
        assert np.array_equal(fleet.battery_j, clone.battery_j)

    def test_comm_time_is_the_link_formula(self, classes):
        store = FleetStore(
            classes,
            np.array([0], dtype=np.int32),
            np.array([100], dtype=np.int64),
        )
        idx = np.array([0])
        mb = 2.0
        down = store.download_time_s(idx, mb)[0]
        up = store.upload_time_s(idx, mb)[0]
        assert down == pytest.approx(0.05 / 2 + mb * 8 / 40.0)
        assert up == pytest.approx(0.05 / 2 + mb * 8 / 10.0)
        assert store.comm_time_s(idx, mb)[0] == pytest.approx(down + up)

    def test_scalar_comm_is_bit_identical(self, fleet):
        idx = np.arange(fleet.n)
        vec = fleet.comm_time_s(idx, 1.5)
        for j in range(fleet.n):
            assert fleet.comm_time_one(j, 1.5) == vec[j]

    def test_idle_drains_idle_power(self, classes):
        store = FleetStore(
            classes,
            np.array([0, 1], dtype=np.int32),
            np.array([100, 100], dtype=np.int64),
        )
        before = store.battery_j.copy()
        store.idle(np.array([0, 1]), np.array([10.0, 10.0]))
        assert store.battery_j[0] == pytest.approx(before[0] - 0.5 * 10)
        assert store.battery_j[1] == pytest.approx(before[1] - 0.8 * 10)
        clone = FleetStore(
            classes,
            np.array([0, 1], dtype=np.int32),
            np.array([100, 100], dtype=np.int64),
        )
        clone.idle_one(0, 10.0)
        clone.idle_one(1, 10.0)
        assert np.array_equal(store.battery_j, clone.battery_j)


class TestIdleForms:
    """``idle`` over a boolean mask is ``idle`` over the mask's
    indices, and neither form — nor the view — runs time backwards."""

    def test_negative_seconds_rejected_by_the_index_form(self, fleet):
        before = fleet.battery_j.copy()
        with pytest.raises(ValueError, match="seconds must be non-negative"):
            fleet.idle(np.array([0, 1]), np.array([-3600.0, -3600.0]))
        with pytest.raises(ValueError, match="seconds must be non-negative"):
            fleet.idle(np.array([0, 1]), np.array([10.0, -1e-9]))
        assert np.array_equal(fleet.battery_j, before)

    def test_negative_seconds_rejected_by_the_mask_form(self, fleet):
        before = fleet.battery_j.copy()
        with pytest.raises(ValueError, match="seconds must be non-negative"):
            fleet.idle(np.ones(fleet.n, dtype=bool), -3600.0)
        assert np.array_equal(fleet.battery_j, before)

    def test_negative_seconds_rejected_by_the_view(self, fleet):
        before = fleet.battery_j.copy()
        with pytest.raises(ValueError, match="seconds must be non-negative"):
            fleet.as_devices()[2].idle(-3600.0)
        assert np.array_equal(fleet.battery_j, before)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 48),
        seconds=st.one_of(
            st.just(0.0), st.floats(0.0, 1e5, allow_nan=False)
        ),
        mask_kind=st.sampled_from(["random", "none", "all"]),
    )
    def test_property_mask_form_is_the_index_form_bit_for_bit(
        self, seed, n, seconds, mask_kind
    ):
        rng = np.random.default_rng(seed)
        store = toy_fleet(n=n, seed=seed)
        # rows at empty and just above it, so the floor binds
        store.battery_j[rng.random(n) < 0.25] = 0.0
        low = rng.random(n) < 0.25
        store.battery_j[low] = rng.random(int(low.sum())) * 1e-3
        store.alive[rng.random(n) < 0.2] = False
        if mask_kind == "random":
            mask = store.alive & (rng.random(n) < 0.7)
        else:
            mask = np.full(n, mask_kind == "all")
        by_mask, by_index = store.copy(), store.copy()
        by_mask.idle(mask, seconds)
        by_index.idle(
            np.flatnonzero(mask), np.full(int(mask.sum()), seconds)
        )
        assert by_mask.battery_j.tobytes() == by_index.battery_j.tobytes()
        assert (by_mask.battery_j >= 0).all()
        assert np.array_equal(
            by_mask.battery_j[~mask], store.battery_j[~mask]
        )


class TestObjectViews:
    def test_as_devices_returns_views_sharing_state(self, fleet):
        devices = fleet.as_devices()
        assert len(devices) == fleet.n
        assert all(isinstance(d, FleetDevice) for d in devices)
        assert devices[3].index == 3
        assert devices[3].battery.soc == fleet.soc_one(3)
        devices[3].idle(100.0)
        assert fleet.soc_one(3) < 1.0 or fleet.battery_j[3] >= 0

    def test_device_view_run_workload_matches_store(self, fleet):
        class Workload:
            n_samples = 600
            epochs = 2

        clone = fleet.copy()
        trace = fleet.as_devices()[0].run_workload(Workload())
        assert isinstance(trace, FleetTrace)
        t, e = clone.run_compute_one(0, 600, epochs=2)
        assert trace.total_time_s == t
        assert trace.energy_j == e

    def test_device_view_spec_is_its_class(self, fleet):
        dev = fleet.as_devices()[0]
        assert dev.spec is fleet.classes[int(fleet.class_id[0])]

    def test_as_links_matches_store_comm(self, fleet):
        links = fleet.as_links()
        assert all(isinstance(x, FleetLink) for x in links)
        j = 2
        assert links[j].download_time_s(1.0) == fleet.download_time_one(
            j, 1.0
        )
        assert links[j].upload_time_s(1.0) == fleet.upload_time_one(
            j, 1.0
        )
        assert links[j].round_trip_time_s(1.0) == fleet.comm_time_one(
            j, 1.0
        )


class TestBuilders:
    def test_default_class_links_cover_the_papers_phones(self):
        assert sorted(DEFAULT_CLASS_LINKS) == [
            "mate10",
            "nexus6",
            "nexus6p",
            "pixel2",
        ]
        assert set(DEFAULT_CLASS_LINKS.values()) <= {"wifi", "lte"}

    def test_device_class_from_name_probes_the_simulator(self):
        cls = device_class_from_name("pixel2", link="lte")
        assert cls.name == "pixel2"
        assert cls.link == "lte"
        assert cls.time_per_sample_s > 0
        assert cls.energy_per_sample_j > 0
        assert cls.capacity_j > 0

    def test_default_device_classes_are_name_sorted(self):
        classes = default_device_classes()
        assert [c.name for c in classes] == sorted(DEFAULT_CLASS_LINKS)
        for c in classes:
            assert c.link == DEFAULT_CLASS_LINKS[c.name]


class TestSyntheticFleet:
    def test_same_seed_same_fleet(self):
        a = toy_fleet(n=64, seed=7)
        b = toy_fleet(n=64, seed=7)
        assert np.array_equal(a.class_id, b.class_id)
        assert np.array_equal(a.data_size, b.data_size)
        assert np.array_equal(a.battery_j, b.battery_j)

    def test_different_seed_different_fleet(self):
        a = toy_fleet(n=64, seed=7)
        b = toy_fleet(n=64, seed=8)
        assert not np.array_equal(a.battery_j, b.battery_j)

    def test_ranges_respected(self):
        f = toy_fleet(
            n=256,
            seed=1,
            data_size_range=(50, 60),
            soc_range=(0.5, 0.6),
        )
        assert f.data_size.min() >= 50 and f.data_size.max() <= 60
        soc = f.soc()
        assert soc.min() >= 0.5 and soc.max() <= 0.6 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            toy_fleet(n=0)
        with pytest.raises(ValueError, match="data_size_range"):
            toy_fleet(n=4, data_size_range=(10, 5))
        with pytest.raises(ValueError, match="soc_range"):
            toy_fleet(n=4, soc_range=(0.5, 1.5))

    def test_default_classes_are_the_papers_phones(self):
        f = synthetic_fleet(8, seed=0)
        assert [c.name for c in f.classes] == sorted(DEFAULT_CLASS_LINKS)

    def test_uses_given_classes(self):
        f = toy_fleet(n=8)
        assert [c.name for c in f.classes] == ["fast", "slow"]
        assert f.classes == toy_classes()
