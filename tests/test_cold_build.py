"""A process's cold build makes only what it reads, bit for bit.

* ``synthetic_fleet`` scales the store's full charge in place by its
  ``uniform`` draw instead of building a capacity gather and a product
  of its own; the formula it replaced is kept here (``_retired_fleet``).
* ``make_dataset`` translates each (dy, dx) group with one slice copy;
  the per-image loop it replaced is kept here (``_retired_translate``).
* A zoo model's training FLOPs are counted from its layer shapes, and
  the fleet's default classes build no weights to read them.
"""

import dataclasses

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.synthetic import DATASET_PRESETS, make_dataset
from repro.fleet import FleetStore, default_device_classes, synthetic_fleet
from repro.models.flops import model_training_flops
from repro.models.layers import Conv2D, Dense
from repro.models.zoo import (
    CIFAR_MINI_SHAPE,
    CIFAR_SHAPE,
    MNIST_MINI_SHAPE,
    MNIST_SHAPE,
    build_model,
    zoo_training_flops,
)

# -- fleet ----------------------------------------------------------------


def _retired_fleet(
    n, seed, classes, data_size_range=(200, 2000), soc_range=(0.25, 1.0)
):
    """``synthetic_fleet``'s draw as it was: its own capacity gather
    times the uniform draw."""
    lo, hi = data_size_range
    rng = np.random.default_rng(seed)
    class_id = rng.integers(0, len(classes), size=n, dtype=np.int32)
    data_size = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    capacity = np.array([c.capacity_j for c in classes], dtype=np.float64)[
        class_id
    ]
    battery_j = capacity * rng.uniform(*soc_range, size=n)
    return FleetStore(classes, class_id, data_size, battery_j=battery_j)


def _columns(store):
    return tuple(
        getattr(store, name).tobytes()
        for name in ("class_id", "data_size", "battery_j", "capacity_j", "alive")
    )


def _custom_classes():
    base = default_device_classes()
    return (
        dataclasses.replace(base[0], name="a", capacity_j=0.1),
        dataclasses.replace(base[2], name="b", capacity_j=33_333.3),
        dataclasses.replace(base[1], name="c", capacity_j=1e7 / 3),
    )


@pytest.mark.parametrize("seed", [0, 11, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 7, 10**5, 10**6])
def test_fleet_columns_equal_the_retired_formula(n, seed):
    classes = default_device_classes()
    assert _columns(synthetic_fleet(n, seed=seed)) == _columns(
        _retired_fleet(n, seed, classes)
    )


@pytest.mark.parametrize("soc_range", [(0.0, 0.0), (1.0, 1.0), (0.1, 0.9)])
@pytest.mark.parametrize("n", [1, 7, 10**5])
def test_custom_fleet_columns_equal_the_retired_formula(n, soc_range):
    classes = _custom_classes()
    for seed in (0, 5, 97):
        got = synthetic_fleet(
            n, seed=seed, classes=classes, data_size_range=(0, 50),
            soc_range=soc_range,
        )
        want = _retired_fleet(n, seed, classes, (0, 50), soc_range)
        assert _columns(got) == _columns(want)


# -- data -----------------------------------------------------------------


def _retired_translate(batch, shifts):
    """``_translate`` as it was: one slice copy per image."""
    out = np.zeros_like(batch)
    for i in range(batch.shape[0]):
        dy, dx = int(shifts[i, 0]), int(shifts[i, 1])
        src = batch[i]
        h, w = src.shape[-2:]
        ys0, ys1 = max(0, dy), min(h, h + dy)
        xs0, xs1 = max(0, dx), min(w, w + dx)
        yd0, yd1 = max(0, -dy), min(h, h - dy)
        xd0, xd1 = max(0, -dx), min(w, w - dx)
        out[i, :, ys0:ys1, xs0:xs1] = src[:, yd0:yd1, xd0:xd1]
    return out


def _arrays(ds):
    return tuple(
        (a.dtype.str, a.shape, a.tobytes())
        for a in (ds.x_train, ds.y_train, ds.x_test, ds.y_test)
    )


@pytest.mark.parametrize("max_shift", [0, 1, 2])
@pytest.mark.parametrize("preset", sorted(DATASET_PRESETS))
def test_dataset_equals_the_retired_translate(preset, max_shift, monkeypatch):
    cfg = dataclasses.replace(
        DATASET_PRESETS[preset], train_size=257, test_size=64, max_shift=max_shift
    )
    got = _arrays(make_dataset(cfg))
    monkeypatch.setattr(synthetic, "_translate", _retired_translate)
    assert got == _arrays(make_dataset(cfg))


def test_translate_with_shifts_as_wide_as_the_image():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(200, 2, 5, 5))
    shifts = rng.integers(-5, 6, size=(200, 2))
    got = synthetic._translate(batch, shifts)
    assert got.tobytes() == _retired_translate(batch, shifts).tobytes()


# -- models ---------------------------------------------------------------

ZOO = ("lenet", "vgg6", "lenet_mini", "vgg_mini", "mlp", "logistic")
SHAPES = (MNIST_SHAPE, CIFAR_SHAPE, MNIST_MINI_SHAPE, CIFAR_MINI_SHAPE)


def _flops_or_error(count):
    try:
        return count().hex()
    except ValueError as exc:  # a shape too small for the model
        return str(exc)


@pytest.mark.parametrize("num_classes", [10, 3])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", ZOO)
def test_flops_from_shapes_equal_the_built_models(name, shape, num_classes):
    built = _flops_or_error(
        lambda: model_training_flops(build_model(name, shape, num_classes))
    )
    assert _flops_or_error(
        lambda: zoo_training_flops(name, shape, num_classes)
    ) == built


def test_default_classes_build_no_weights(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(Conv2D, "__init__", forbidden)
    monkeypatch.setattr(Dense, "__init__", forbidden)
    assert len(default_device_classes()) == 4
