"""Every backward hands its gradient back in its input's layout.

A conv's output is its NHWC GEMM product seen through a transpose, and
the ReLU mask and the pool's input keep that layout. A gradient that
came back C-ordered made the ReLU multiply mismatched layouts and the
conv copy its rows back to NHWC. The values are held, bit for bit, to
the retired kernels in ``test_kernel_equivalence.py``; here the layouts
are held to the forward input's.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import lenet_mini
from repro.models import layers as layers_mod
from repro.models.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Tanh,
)

from .test_kernel_equivalence import _RetiredMaxPool, _same_bits, pool_case

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _nhwc(x):
    """``x`` as a conv output holds it: NHWC memory seen as NCHW."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _same_values(new, old):
    """:func:`_same_bits` on the values, whatever ``new``'s layout."""
    _same_bits(np.ascontiguousarray(new), np.ascontiguousarray(old))


@settings(max_examples=300, deadline=None)
@given(case=pool_case(), data=st.data())
def test_the_pool_on_a_conv_output_is_the_argmax_pool(case, data):
    x, pool, stride = case
    x = _nhwc(x)
    new, old = MaxPool2D(pool, stride), _RetiredMaxPool(pool, stride)
    out = new.forward(x, training=True)
    _same_bits(out, old.forward(x, training=True))  # C-contiguous NCHW
    grad = np.asarray(
        data.draw(st.lists(st.floats(width=64), min_size=out.size,
                           max_size=out.size)),
        dtype=np.float64,
    ).reshape(out.shape)
    back = new.backward(grad)
    _same_values(back, old.backward(grad))
    if back.size:
        assert back.strides == x.strides


def test_the_pool_keeps_no_reference_to_its_input():
    x = _nhwc(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
    buffer = weakref.ref(x.base)
    pool = MaxPool2D(2)
    pool.forward(x, training=True)
    del x
    gc.collect()
    assert buffer() is None
    assert pool.backward(np.ones((2, 3, 2, 2))).shape == (2, 3, 4, 4)


@pytest.mark.parametrize(
    "pool, stride, size, tiles",
    [
        (2, None, 4, True),
        (2, None, 5, False),  # odd size: the last row and column are in no window
        (3, 2, 7, False),  # overlapping windows
        (2, 3, 8, False),  # gaps between windows
    ],
)
def test_only_tiling_windows_skip_the_tap_adds(
    monkeypatch, pool, stride, size, tiles
):
    calls = []
    real = layers_mod._add_taps
    monkeypatch.setattr(
        layers_mod, "_add_taps", lambda *a: calls.append(1) or real(*a)
    )
    x = _nhwc(np.random.default_rng(1).normal(size=(3, 2, size, size)))
    new, old = MaxPool2D(pool, stride), _RetiredMaxPool(pool, stride)
    out = new.forward(x, training=True)
    old.forward(x, training=True)
    grad = np.random.default_rng(2).normal(size=out.shape)
    grad[0, 0, 0, 0] = -0.0
    back = new.backward(grad)
    assert calls == ([] if tiles else [1])
    _same_values(back, old.backward(grad))
    assert back.strides == x.strides


def test_the_bottom_conv_reads_its_gradient_rows_as_a_view(monkeypatch):
    net = lenet_mini(seed=0)
    bottom = net.layers[0]
    seen = []
    real = Conv2D._param_grads

    def recording(self, grad_out):
        rows = real(self, grad_out)
        if self is bottom:
            seen.append(np.shares_memory(rows, grad_out))
        return rows

    monkeypatch.setattr(Conv2D, "_param_grads", recording)
    x = np.random.default_rng(0).normal(size=(20, 1, 12, 12))
    net.train_batch(x, np.arange(20) % 10)
    assert seen == [True]


_X = np.random.default_rng(3).normal(size=(4, 6, 6, 6))


@pytest.mark.parametrize(
    "layer, x",
    [
        (ReLU(), _nhwc(_X)),
        (Tanh(), _nhwc(_X)),
        (Flatten(), _nhwc(_X)),
        (Conv2D(6, 2, 3, padding=1), _nhwc(_X)),
        (MaxPool2D(2), _nhwc(_X)),
        (MaxPool2D(3, stride=1), _nhwc(_X)),
        (AvgPool2D(2), _nhwc(_X)),
        (BatchNorm2D(6), _nhwc(_X)),
        (Dropout(0.5, rng=np.random.default_rng(0)), _nhwc(_X)),
        (Dense(6, 3), np.asfortranarray(_X[:, :, 0, 0])),
        (ReLU(), _X),
        (Conv2D(6, 2, 3), _X),
        (MaxPool2D(2), _X),
    ],
)
def test_every_backward_returns_its_input_layout(layer, x):
    out = layer.forward(x, training=True)
    grad = np.ascontiguousarray(
        np.random.default_rng(4).normal(size=out.shape)
    )
    back = layer.backward(grad)
    assert back.shape == x.shape
    order = layers_mod._axis_order
    assert order(back) == order(x)
