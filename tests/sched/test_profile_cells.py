"""The profile is a table of cells: one cold-start simulation per
(phone, training FLOPs per sample, size, batch), read by both the time
and the energy fit, and filled from one pass per (phone, FLOPs, batch).

The counts are host-independent (simulations — control-step loops —
and control steps, not milliseconds). The bit pins are the ``.hex()``
of every float the fleet classes and the curves carry, recorded when
each fit still ran its own simulations: sharing the cells must not
move a bit.
"""

import numpy as np
import pytest

from repro.device.device import MobileDevice
from repro.device.registry import make_device
from repro.fleet.store import default_device_classes
from repro.models.zoo import MNIST_MINI_SHAPE, MNIST_SHAPE, build_model
from repro.obs.prof import PhaseProfiler
from repro.profiling.trace import measure_grid
from repro.sched import costs
from repro.sched.costs import (
    cached_energy_curves,
    cached_time_curves,
    clear_cost_cache,
    testbed_problem,
)

PHONES = ("mate10", "nexus6", "nexus6p", "pixel2")

#: ``DeviceClass.signature()`` floats of ``default_device_classes()``
CLASS_BITS = {
    "mate10": ("0x1.5e00000000000p-42", "0x1.eb3bd90c39620p-7", "0x1.0000000000000p-48", "0x1.586274fe92263p-6", "0x1.5400000000000p+6", "0x1.5400000000000p+6", "0x1.47ae147ae147bp-6"),
    "nexus6": ("0x0.0p+0", "0x1.52748fd6187ffp-7", "0x1.a000000000000p-44", "0x1.7471398d01a82p-6", "0x1.5400000000000p+6", "0x1.5400000000000p+6", "0x1.47ae147ae147bp-6"),
    "nexus6p": ("0x0.0p+0", "0x1.7797575b3e124p-5", "0x0.0p+0", "0x1.175e83f12aad0p-5", "0x1.e000000000000p+5", "0x1.6000000000000p+3", "0x1.999999999999ap-5"),
    "pixel2": ("0x0.0p+0", "0x1.1106ac8cd2824p-7", "0x1.4000000000000p-45", "0x1.ce96fedf85353p-7", "0x1.e000000000000p+5", "0x1.6000000000000p+3", "0x1.999999999999ap-5"),
}

#: ``(base, slope, curvature, floor)`` of each default-grid curve
CURVE_BITS = {
    ("lenet", MNIST_SHAPE, "time"): {
        "mate10": ("0x1.601ad44183c49p-42", "0x1.eb3bd90c3961fp-7", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
        "nexus6": ("-0x1.ec0fa10b767cep-45", "0x1.52748fd6187ffp-7", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
        "nexus6p": ("-0x1.70dcb0cf7b5c6p+5", "0x1.77d3bee5a9fcdp-5", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
        "pixel2": ("-0x1.e3577b80113e7p-45", "0x1.1106ac8cd2824p-7", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
    },
    ("lenet", MNIST_SHAPE, "energy"): {
        "mate10": ("0x0.0p+0", "0x1.586274fe92264p-6", "0x0.0p+0", "0x0.0p+0"),
        "nexus6": ("0x1.8c0db433574d4p-44", "0x1.7471398d01a83p-6", "0x0.0p+0", "0x0.0p+0"),
        "nexus6p": ("0x0.0p+0", "0x1.175e83f12aad0p-5", "0x0.0p+0", "0x0.0p+0"),
        "pixel2": ("0x1.389c64d9fbaa6p-45", "0x1.ce96fedf85353p-7", "0x0.0p+0", "0x0.0p+0"),
    },
    ("lenet_mini", MNIST_MINI_SHAPE, "time"): {
        "mate10": ("0x1.567f8c7444589p-43", "0x1.c6faf757a0f96p-7", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
        "nexus6": ("0x1.695800aadf242p-45", "0x1.1f777080c4eb7p-7", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
        "nexus6p": ("-0x1.8e46872486de8p+5", "0x1.5e6840380b5a7p-5", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
        "pixel2": ("0x1.f7d753cbb0808p-45", "0x1.d9852537bc3cdp-8", "0x0.0p+0", "0x1.0c6f7a0b5ed8dp-20"),
    },
    ("lenet_mini", MNIST_MINI_SHAPE, "energy"): {
        "mate10": ("0x0.0p+0", "0x1.243b3596c05dfp-6", "0x0.0p+0", "0x0.0p+0"),
        "nexus6": ("0x0.0p+0", "0x1.00c8d3c8771bfp-6", "0x0.0p+0", "0x0.0p+0"),
        "nexus6p": ("0x0.0p+0", "0x1.eb21b9cc2c2a2p-6", "0x0.0p+0", "0x0.0p+0"),
        "pixel2": ("0x1.78699c97dae87p-47", "0x1.541d13a49a616p-7", "0x0.0p+0", "0x0.0p+0"),
    },
}


def _counter(monkeypatch, method):
    """A live count of calls to ``MobileDevice.<method>``."""
    count = [0]
    real = getattr(MobileDevice, method)

    def counted(self, *args, **kwargs):
        count[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(MobileDevice, method, counted)
    return count


@pytest.fixture
def runs(monkeypatch):
    """A live count of simulations (control-step loops: a
    ``run_workload`` or a profile pass), starting from an empty
    profile."""
    clear_cost_cache()
    return _counter(monkeypatch, "_run")


def _lenet():
    return build_model("lenet", input_shape=MNIST_SHAPE)


class TestOneRunPerCell:
    def test_default_classes_simulate_one_pass_per_phone(self, runs):
        """4 phones, each one pass over the 5-size time grid; the 3
        energy anchors all lie on it."""
        default_device_classes()
        assert runs[0] == 4

    def test_energy_curves_after_the_classes_simulate_nothing(self, runs):
        default_device_classes()
        before = runs[0]
        cached_energy_curves(PHONES, _lenet())
        assert runs[0] == before

    def test_time_curves_after_the_energy_curves_simulate_nothing(self, runs):
        """The first fit fills both default grids, whichever it is."""
        cached_energy_curves(PHONES, _lenet())
        before = runs[0]
        cached_time_curves(PHONES, _lenet())
        assert before == 4 and runs[0] == before

    def test_testbed_problem_simulates_one_pass_per_phone(self, runs):
        testbed_problem(
            ["pixel2", "mate10", "pixel2"], total_samples=6000, with_energy=True
        )
        assert runs[0] == 2
        testbed_problem(["pixel2", "nexus6"], total_samples=6000, with_energy=True)
        assert runs[0] == 3

    def test_the_model_name_is_not_in_the_key(self, runs):
        """Two builds of one architecture under different names share
        their cells and their curves."""
        net, renamed = _lenet(), _lenet()
        renamed.name = "renamed"
        (a,) = cached_time_curves(["pixel2"], net)
        (b,) = cached_time_curves(["pixel2"], renamed)
        assert a is b and runs[0] == 1

    def test_bootstrap_and_energy_on_a_callers_device_still_measure(self, runs):
        """The table serves only the cached curves: the public
        measuring functions run on the device they are handed."""
        from repro.device.energy import energy_for_samples
        from repro.profiling.profiler import bootstrap_curve

        cached_time_curves(["pixel2"], _lenet())
        before = runs[0]
        device = make_device("pixel2", jitter=0.0)
        bootstrap_curve(device, _lenet(), (500, 1500))
        energy_for_samples(device, _lenet(), 500)
        assert runs[0] == before + 3


class TestColdFleetBuildCost:
    def test_four_profile_phases_and_no_prefix_resimulated(self, monkeypatch):
        """A cold 4-class fleet build profiles each phone once, and its
        control steps are at most those of the four 12 000-sample runs
        alone: re-simulating a smaller size's prefix fails here."""
        clear_cost_cache()
        prof = PhaseProfiler(enabled=True)
        monkeypatch.setattr(costs, "PROFILER", prof)
        steps = _counter(monkeypatch, "_step_control")
        default_device_classes()
        assert {"/".join(p): s.count for p, s in prof.stats.items()} == {
            "profile": 4
        }
        assert steps[0] <= 1843


class TestCurvesKeepTheirBits:
    def test_default_class_signatures(self):
        clear_cost_cache()
        got = {
            c.name: tuple(v.hex() for v in c.signature()[1:])
            for c in default_device_classes()
        }
        assert got == CLASS_BITS

    @pytest.mark.parametrize("key", sorted(CURVE_BITS, key=str))
    def test_curve_fields(self, key):
        model, shape, kind = key
        clear_cost_cache()
        fit = cached_time_curves if kind == "time" else cached_energy_curves
        curves = fit(PHONES, build_model(model, input_shape=shape))
        got = {
            name: tuple(
                float(getattr(c, f)).hex()
                for f in ("base", "slope", "curvature", "floor")
            )
            for name, c in zip(PHONES, curves)
        }
        assert got == CURVE_BITS[key]


class TestSizesAreWholeSamples:
    @pytest.mark.parametrize(
        "sizes", [(0.5, 3000), (500.7, 3000), (500.2, 3000), (0, 3000), (-500, 3000)]
    )
    def test_cached_curves_refuse_and_name_the_size(self, runs, sizes):
        net = _lenet()
        for fit in (cached_time_curves, cached_energy_curves):
            with pytest.raises(ValueError, match=repr(sizes[0])):
                fit(["pixel2"], net, sizes)
        assert runs[0] == 0

    @pytest.mark.parametrize("bad", [0.5, 0, float("nan"), float("inf"), -3])
    def test_measure_grid_refuses_and_names_the_size(self, bad):
        device = make_device("pixel2", jitter=0.0)
        with pytest.raises(ValueError, match="whole numbers"):
            measure_grid(device, [_lenet()], (500, bad))

    def test_measure_grid_refuses_an_empty_grid(self):
        with pytest.raises(ValueError, match="at least one data size"):
            measure_grid(make_device("pixel2"), [_lenet()], ())

    def test_integer_likes_are_the_same_cells(self, runs):
        """NumPy integers and integral floats are the same counts: the
        same key, so the same curve object, fitted on the same runs."""
        net = _lenet()
        (a,) = cached_energy_curves(["pixel2"], net, (500, 3000))
        (b,) = cached_energy_curves(["pixel2"], net, (np.int64(500), 3000.0))
        (c,) = cached_energy_curves(["pixel2"], net, np.array([500, 3000]))
        assert a is b is c and runs[0] == 1
        ms = measure_grid(make_device("pixel2", jitter=0.0), [net], (np.int64(500), 3000.0))
        assert [m.n_samples for m in ms] == [500, 3000]
        assert all(type(m.n_samples) is int for m in ms)
