"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* valid input, spanning the NumPy DL
stack, the device simulator, the partitioners and the schedulers.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.baselines import equal_schedule, random_schedule
from repro.core.cost import enforce_property1
from repro.core.lbap import fed_lbap
from repro.core.schedule import Schedule, evaluate_makespan
from repro.data.partition import (
    imbalanced_iid_sizes,
    nclass_noniid_classes,
)
from repro.device.specs import ClusterSpec, DeviceSpec, ThermalSpec
from repro.device.thermal import ThermalState
from repro.federated.server import fedavg_aggregate
from repro.models.layers import col2im, im2col
from repro.models.losses import softmax, softmax_cross_entropy


class TestModelProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        k=st.integers(2, 12),
    )
    def test_softmax_is_distribution(self, seed, n, k):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, size=(n, k))
        p = softmax(logits)
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cross_entropy_nonnegative_and_grad_sums_zero(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(5, 8))
        labels = rng.integers(0, 8, size=5)
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss >= 0.0
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kh=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
    )
    def test_im2col_col2im_adjoint(self, seed, kh, stride, pad):
        """<im2col(x), c> == <x, col2im(c)> for all geometries."""
        rng = np.random.default_rng(seed)
        h = kh + 2  # ensure the kernel fits
        x = rng.normal(size=(2, 2, h, h))
        cols, _, _ = im2col(x, kh, kh, (stride, stride), (pad, pad))
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float(
            (x * col2im(c, x.shape, kh, kh, (stride, stride), (pad, pad))).sum()
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestFedAvgProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_clients=st.integers(1, 6),
    )
    def test_aggregate_is_convex_combination(self, seed, n_clients):
        """Each coordinate of the aggregate lies within the clients'
        min/max envelope."""
        rng = np.random.default_rng(seed)
        vecs = [rng.normal(size=7) for _ in range(n_clients)]
        counts = rng.integers(1, 100, size=n_clients).tolist()
        agg = fedavg_aggregate(vecs, counts)
        stack = np.stack(vecs)
        assert (agg >= stack.min(axis=0) - 1e-12).all()
        assert (agg <= stack.max(axis=0) + 1e-12).all()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_aggregate_scale_equivariant(self, seed):
        rng = np.random.default_rng(seed)
        vecs = [rng.normal(size=5) for _ in range(3)]
        counts = [3, 5, 2]
        a = fedavg_aggregate(vecs, counts)
        b = fedavg_aggregate([2.0 * v for v in vecs], counts)
        np.testing.assert_allclose(2.0 * a, b, atol=1e-12)


class TestThermalProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        p1=st.floats(0.0, 10.0),
        p2=st.floats(0.0, 10.0),
        dt=st.floats(0.1, 100.0),
    )
    def test_more_power_never_cooler(self, p1, p2, dt):
        assume(p1 <= p2)
        a = ThermalState(ThermalSpec())
        b = ThermalState(ThermalSpec())
        a.update(p1, dt)
        b.update(p2, dt)
        assert b.temp_c >= a.temp_c - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(0.0, 10.0),
        dt1=st.floats(0.1, 50.0),
        dt2=st.floats(0.1, 50.0),
    )
    def test_update_composes(self, p, dt1, dt2):
        """Two consecutive updates equal one combined update (the exact
        integrator property)."""
        a = ThermalState(ThermalSpec())
        a.update(p, dt1)
        a.update(p, dt2)
        b = ThermalState(ThermalSpec())
        b.update(p, dt1 + dt2)
        assert a.temp_c == pytest.approx(b.temp_c, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(0.0, 20.0))
    def test_temperature_bounded_by_steady_state(self, p):
        spec = ThermalSpec()
        st_ = ThermalState(spec)
        steady = spec.ambient_c + spec.r_thermal_c_per_w * p
        for _ in range(20):
            st_.update(p, 10.0)
            lo = min(spec.ambient_c, steady) - 1e-9
            hi = max(spec.ambient_c, steady) + 1e-9
            assert lo <= st_.temp_c <= hi


class TestPartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(2, 20),
        ratio=st.floats(0.0, 1.2),
    )
    def test_imbalanced_sizes_exact_total(self, seed, n_users, ratio):
        rng = np.random.default_rng(seed)
        total = 100 * n_users
        sizes = imbalanced_iid_sizes(n_users, total, ratio, rng)
        assert int(sizes.sum()) == total
        assert (sizes >= 1).all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(3, 12),
        k=st.integers(1, 10),
    )
    def test_noniid_class_sets_valid(self, seed, n_users, k):
        rng = np.random.default_rng(seed)
        sets = nclass_noniid_classes(n_users, k, 10, rng)
        for s in sets:
            assert 1 <= len(s) <= 10
            assert len(set(s)) == len(s)
        if n_users * k >= 10:
            assert set(c for s in sets for c in s) == set(range(10))


class TestSchedulerProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property1_enforcement_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0, 10, size=(4, 8))
        once = enforce_property1(c)
        twice = enforce_property1(once)
        np.testing.assert_allclose(once, twice)
        assert (np.diff(once, axis=1) >= 0).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), total=st.integers(2, 30))
    def test_lbap_not_worse_than_equal(self, seed, total):
        """Fed-LBAP's realized bottleneck is never worse than Equal's
        under the same cost matrix."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        cost = np.cumsum(rng.uniform(0.05, 1.0, size=(n, total)), axis=1)
        sched, c_star = fed_lbap(cost, total)
        eq = equal_schedule(n, total, 1)

        def bottleneck(counts):
            return max(
                cost[j, k - 1] for j, k in enumerate(counts) if k > 0
            )

        assert c_star <= bottleneck(eq.shard_counts) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_makespan_consistent_with_curves(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        slopes = rng.uniform(0.001, 0.1, size=n)
        counts = rng.integers(0, 10, size=n)
        assume(counts.sum() > 0)
        sched = Schedule(counts, shard_size=100)
        curves = [lambda x, s=s: s * x for s in slopes]
        cost = evaluate_makespan(sched, curves)
        expected = max(
            slopes[j] * counts[j] * 100
            for j in range(n)
            if counts[j] > 0
        )
        assert cost.makespan_s == pytest.approx(expected)
        assert cost.mean_s <= cost.makespan_s + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), total=st.integers(1, 50))
    def test_random_schedule_total(self, seed, total):
        rng = np.random.default_rng(seed)
        s = random_schedule(5, total, 10, rng)
        assert s.total_shards == total


class TestTelemetryProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 4),
        n_rounds=st.integers(1, 3),
    )
    def test_telemetry_makespans_match_history(
        self, tiny_dataset, seed, n_users, n_rounds
    ):
        """For any sync run, the event stream's per-round makespans are
        exactly the ConvergenceHistory's makespans."""
        from repro.data.partition import iid_partition
        from repro.device.registry import DEVICE_NAMES, make_device
        from repro.federated.simulation import FederatedSimulation
        from repro.models import logistic
        from repro.obs import ObsRecorder

        rng = np.random.default_rng(seed)
        users = iid_partition(tiny_dataset, n_users, rng)
        names = sorted(DEVICE_NAMES)
        devices = [
            make_device(names[int(rng.integers(len(names)))], jitter=0.0)
            for _ in range(n_users)
        ]
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = FederatedSimulation(
            tiny_dataset, model, users, devices=devices
        )
        rec = ObsRecorder(trace=False)
        sim.events.subscribe(rec)
        history = sim.run(n_rounds, train=False)

        assert [r.makespan_s for r in rec.rounds] == pytest.approx(
            history.makespans()
        )
        assert len(rec.rounds) == n_rounds
        assert (
            rec.event_counts()["client_dispatched"] == n_users * n_rounds
        )


class TestDeviceProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        f1=st.floats(0.5, 2.0),
        f2=st.floats(0.5, 2.0),
        flops=st.floats(1e6, 1e10),
    )
    def test_throughput_monotone_in_frequency(self, f1, f2, flops):
        assume(f1 <= f2)
        spec = DeviceSpec(
            name="t",
            soc="t",
            clusters=(
                ClusterSpec(
                    name="uni",
                    n_cores=4,
                    freq_min_ghz=0.5,
                    freq_max_ghz=2.0,
                    gflops_per_core_ghz=1.0,
                ),
            ),
        )
        a = spec.effective_gflops(flops, {"uni": f1})
        b = spec.effective_gflops(flops, {"uni": f2})
        assert b >= a - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(
        flops1=st.floats(1e6, 1e10),
        flops2=st.floats(1e6, 1e10),
    )
    def test_efficiency_monotone_in_intensity(self, flops1, flops2):
        assume(flops1 <= flops2)
        spec = DeviceSpec(
            name="t",
            soc="t",
            clusters=(
                ClusterSpec(
                    name="uni",
                    n_cores=1,
                    freq_min_ghz=1.0,
                    freq_max_ghz=1.0,
                    gflops_per_core_ghz=1.0,
                ),
            ),
            flops_half=5e7,
        )
        assert spec.efficiency(flops2) >= spec.efficiency(flops1)
