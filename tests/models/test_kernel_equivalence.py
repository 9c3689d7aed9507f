"""The conv and pool kernels are bit for bit the bodies they replaced.

``im2col`` gathers every receptive field through one per-image index,
``col2im`` scatters the cells back through one ordered ``np.add.at``,
``MaxPool2D`` finds each window's maximum by whole-plane compares, and
``Sequential.train_batch`` gives the first layer with parameters no
input gradient to compute. The retired bodies live on here as the
reference. Every comparison is on the bits, so ``-0.0`` and infinities
count, and on the layout, because a reduction downstream (a batch-norm
or bias sum) adds in memory order. A NaN only has to be a NaN: which of
two NaNs an add returns is up to the machine code of each NumPy loop (a
compiler may swap the operands of a commutative add), so no two loops
promise the same payload.

The corners each kernel must keep: ``col2im`` adds a pixel's kernel taps
in ``(i, j)`` order, so overlapping strides and padding are drawn; the
pool takes the *first* of tied maxima (``-0.0`` ties ``0.0``) and the
first NaN, as ``argmax`` does, and routes ``0.0 × grad`` (NaN for an
infinite gradient) to every other tap, as a 0/1 mask times the gradient
did.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import lenet_mini, logistic, vgg_mini
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
    col2im,
    im2col,
)
from repro.models.losses import softmax_cross_entropy
from repro.models.network import Sequential
from repro.models.optim import SGD

#: infinities and NaNs are drawn on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# -- the retired bodies -------------------------------------------------


def _retired_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = pad
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if ph or pw:
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    else:
        xp = x
    sN, sC, sH, sW = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sN, sC, sH * sh, sW * sw, sH, sW),
    )
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kh * kw
    )
    return cols, out_h, out_w


def _retired_col2im(cols, x_shape, kh, kw, stride, pad):
    n, c, h, w = x_shape
    sh, sw = stride
    ph, pw = pad
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    patches = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(
        0, 3, 1, 2, 4, 5
    )
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            xp[:, :, i:i_max:sh, j:j_max:sw] += patches[:, :, :, :, i, j]
    if ph or pw:
        return xp[:, :, ph : ph + h, pw : pw + w]
    return xp


class _RetiredMaxPool(MaxPool2D):
    def forward(self, x, training=False):
        kh, kw = self.pool_size
        n, c, h, w = x.shape
        cols, out_h, out_w = _retired_im2col(
            x.reshape(n * c, 1, h, w), kh, kw, self.stride, (0, 0)
        )
        idx = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), idx].reshape(n, c, out_h, out_w)
        if training:
            mask = np.zeros_like(cols)
            mask[np.arange(cols.shape[0]), idx] = 1.0
            self._mask = mask
            self._x_shape = x.shape
        else:
            self._mask = None
        return out

    def backward(self, grad_out):
        n, c, h, w = self._x_shape
        kh, kw = self.pool_size
        grad_cols = self._mask * grad_out.reshape(-1, 1)
        return _retired_col2im(
            grad_cols, (n * c, 1, h, w), kh, kw, self.stride, (0, 0)
        ).reshape(n, c, h, w)


class _RetiredConv2D(Conv2D):
    def forward(self, x, training=False):
        kh, kw = self.kernel_size
        cols, out_h, out_w = _retired_im2col(
            x, kh, kw, self.stride, self.padding
        )
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ w_mat.T + self.params["b"]
        out = out.reshape(x.shape[0], out_h, out_w, self.out_channels)
        self._cols = cols if training else None
        self._x_shape = x.shape
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out):
        g = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        self.grads["W"][...] = (g.T @ self._cols).reshape(
            self.params["W"].shape
        )
        self.grads["b"][...] = g.sum(axis=0)
        kh, kw = self.kernel_size
        return _retired_col2im(
            g @ w_mat, self._x_shape, kh, kw, self.stride, self.padding
        )


def _retired(net):
    """A copy of ``net`` running the retired kernels."""
    old = copy.deepcopy(net)
    for layer in old.layers:
        if type(layer) is Conv2D:
            layer.__class__ = _RetiredConv2D
        elif type(layer) is MaxPool2D:
            layer.__class__ = _RetiredMaxPool
    return old


def _retired_train_batch(net, x, y):
    logits = net.forward(x, training=True)
    loss, grad = softmax_cross_entropy(logits, y)
    net.backward(grad)
    return loss, logits


# -- comparison -----------------------------------------------------------


def _same_bits(new, old):
    """Equal bits wherever ``old`` is not NaN, NaN where it is NaN."""
    assert new.shape == old.shape and new.dtype == old.dtype
    if new.size:  # same layout, same sums downstream
        assert new.strides == old.strides
    nan = np.isnan(old)
    assert np.array_equal(np.isnan(new), nan)
    assert np.array_equal(new.view(np.uint64)[~nan], old.view(np.uint64)[~nan])


# -- strategies -----------------------------------------------------------

#: signed zeros, infinities and NaNs of both signs beside ordinary values
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan, -math.nan]
_CELL = st.sampled_from(_SPECIAL) | st.floats(width=64)


def _array(draw, shape, cells=_CELL):
    size = int(np.prod(shape))
    return np.array(
        draw(st.lists(cells, min_size=size, max_size=size)), dtype=np.float64
    ).reshape(shape)


@st.composite
def conv_case(draw):
    n, c = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * ph), 7))
    w = draw(st.integers(max(1, kw - 2 * pw), 7))
    return (n, c, h, w), kh, kw, (sh, sw), (ph, pw)


@st.composite
def pool_case(draw):
    n, c = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(kh, 7)), draw(st.integers(kw, 7))
    # few distinct values make ties the common case
    cells = st.sampled_from(draw(st.lists(_CELL, min_size=1, max_size=4)))
    x = _array(draw, (n, c, h, w), cells if draw(st.booleans()) else _CELL)
    return x, (kh, kw), (sh, sw)


# -- im2col / col2im ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(case=conv_case(), data=st.data())
def test_im2col_is_the_strided_copy(case, data):
    x_shape, kh, kw, stride, pad = case
    x = _array(data.draw, x_shape)
    new, oh, ow = im2col(x, kh, kw, stride, pad)
    old, ooh, oow = _retired_im2col(x, kh, kw, stride, pad)
    assert (oh, ow) == (ooh, oow)
    _same_bits(new, np.ascontiguousarray(old))


@settings(max_examples=300, deadline=None)
@given(case=conv_case(), data=st.data())
def test_col2im_adds_taps_in_kernel_order(case, data):
    x_shape, kh, kw, stride, pad = case
    n, c, h, w = x_shape
    oh = (h + 2 * pad[0] - kh) // stride[0] + 1
    ow = (w + 2 * pad[1] - kw) // stride[1] + 1
    cols = _array(data.draw, (n * oh * ow, c * kh * kw))
    _same_bits(
        col2im(cols, x_shape, kh, kw, stride, pad),
        _retired_col2im(cols, x_shape, kh, kw, stride, pad),
    )


def test_col2im_order_is_visible():
    """Pixel 2 of a 1x5 row gets one tap from each of three outputs of a
    1x3 kernel. In ``(j)`` order they are ``1e16, 1.0, 1.0``, and each
    ``1.0`` is lost to rounding; in output order the two ``1.0`` meet
    first and survive as ``+2``."""
    cols = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1e16, 0.0, 0.0]])
    x_shape = (1, 1, 1, 5)
    new = col2im(cols, x_shape, 1, 3, (1, 1), (0, 0))
    _same_bits(new, _retired_col2im(cols, x_shape, 1, 3, (1, 1), (0, 0)))
    assert new[0, 0, 0, 2] == 1e16


# -- max pooling ----------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(case=pool_case(), data=st.data())
@example(  # tied zeros: the first (-0.0) wins, and gets the gradient
    case=(np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 1, 2, 2), (2, 2), (2, 2)),
    data=None,
)
@example(  # the first NaN wins over a later one and over +inf
    case=(np.array([1.0, -math.nan, math.inf, math.nan]).reshape(1, 1, 2, 2),
          (2, 2), (2, 2)),
    data=None,
)
def test_maxpool_is_the_argmax_pool(case, data):
    x, pool, stride = case
    new, old = MaxPool2D(pool, stride), _RetiredMaxPool(pool, stride)
    out = new.forward(x, training=True)
    _same_bits(out, old.forward(x, training=True))
    if data is None:
        grad = np.array([[[[-3.0]]]])
    else:
        grad = _array(data.draw, out.shape)
    _same_bits(new.backward(grad), old.backward(grad))
    _same_bits(new.forward(x), old.forward(x))  # inference


@pytest.mark.parametrize("pool", [(2, 2), (3, 3)])
def test_maxpool_reads_late_taps_of_large_planes(pool):
    """Tap indices fit uint8 but tap × plane size does not (here up to
    8 × 512), so the read-back index must be widened before the multiply
    under any NumPy promotion rule (NumPy 1.x kept a uint8 × intp-scalar
    product in uint8). Some window's maximum sits in the last tap."""
    rng = np.random.default_rng(0)
    x = rng.permutation(8 * 24 * 24).astype(np.float64).reshape(2, 4, 24, 24)
    new, old = MaxPool2D(pool), _RetiredMaxPool(pool)
    out = new.forward(x, training=True)
    assert out.size > 255 and new._arg.dtype == np.uint8
    assert new._arg.max() == pool[0] * pool[1] - 1
    _same_bits(out, old.forward(x, training=True))
    grad = rng.normal(size=out.shape)
    _same_bits(new.backward(grad), old.backward(grad))


def test_maxpool_rejects_a_window_larger_than_the_input():
    with pytest.raises(ValueError):
        MaxPool2D(3).forward(np.zeros((1, 1, 2, 2)))


# -- the training step ----------------------------------------------------


def _odd_net(seed):
    """Every layer kind: a dropout at the bottom, padded and strided
    convs, overlapping pool windows, batch norm and average pooling."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dropout(0.2, rng=np.random.default_rng(1)),
            Conv2D(3, 6, 3, stride=1, padding=1, rng=rng),
            Tanh(),
            MaxPool2D(3, stride=2),
            BatchNorm2D(6),
            Conv2D(6, 8, 2, stride=2, padding=1, rng=rng),
            ReLU(),
            AvgPool2D(2),
            Flatten(),
            Dense(8, 10, rng=rng),
        ],
        name="odd",
        input_shape=(3, 9, 9),
    )


_NETS = {
    "lenet_mini": lambda: lenet_mini(seed=3),
    "vgg_mini": lambda: vgg_mini(seed=3),
    "logistic": lambda: logistic(seed=3),
    "odd": lambda: _odd_net(3),
}
_SHAPES = {"lenet_mini": (1, 12, 12), "vgg_mini": (3, 12, 12),
           "logistic": (1, 12, 12), "odd": (3, 9, 9)}


def _grads(layers):
    return [g for layer in layers for _, g in sorted(layer.grads.items())]


@pytest.mark.parametrize("name", sorted(_NETS))
def test_training_matches_the_retired_kernels(name):
    """SGD steps through the new kernels and the skipped input gradient
    leave every parameter bit-equal to the retired kernels' full
    backward, step after step, at batch sizes 20, 13 and 7."""
    new = _NETS[name]()
    old = _retired(new)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, *_SHAPES[name]))
    x[rng.random(x.shape) < 0.05] = 0.0
    y = rng.integers(0, 10, 60)
    opt_new = SGD(new.parameters(), lr=0.05, momentum=0.9)
    opt_old = SGD(old.parameters(), lr=0.05, momentum=0.9)
    for start, size in ((0, 20), (20, 13), (33, 20), (53, 7)):
        xb, yb = x[start : start + size], y[start : start + size]
        loss, logits = new.train_batch(xb, yb)
        loss_old, logits_old = _retired_train_batch(old, xb, yb)
        assert float(loss).hex() == float(loss_old).hex()
        _same_bits(logits, logits_old)
        for g, g_old in zip(_grads(new.layers), _grads(old.layers)):
            _same_bits(g, g_old)
        opt_new.step()
        opt_new.zero_grad()
        opt_old.step()
        opt_old.zero_grad()
    _same_bits(new.get_weights(), old.get_weights())
    _same_bits(new.forward(x), old.forward(x))


def test_bottom_conv_computes_no_input_gradient(monkeypatch):
    """A lenet_mini step scatters one input gradient (the second conv's),
    not two."""
    calls = []
    real = layers_mod.col2im

    def counting(cols, x_shape, *args):
        calls.append(x_shape)
        return real(cols, x_shape, *args)

    monkeypatch.setattr(layers_mod, "col2im", counting)
    net = lenet_mini(seed=0)
    x = np.random.default_rng(0).normal(size=(4, 1, 12, 12))
    net.train_batch(x, np.arange(4))
    assert calls == [(4, 8, 5, 5)]
    net.backward(np.ones((4, 10)))  # the public backward still does both
    assert calls[1:] == [(4, 8, 5, 5), (4, 1, 12, 12)]


def test_layers_below_the_bottom_parameters_are_not_run(monkeypatch):
    ran = []
    monkeypatch.setattr(
        Flatten, "backward", lambda self, g: ran.append(g) or g
    )
    net = logistic(seed=0)
    net.train_batch(np.zeros((2, 1, 12, 12)), np.array([0, 1]))
    assert ran == []


def test_a_net_without_parameters_trains_to_a_loss():
    net = Sequential([Flatten()], name="flat")
    loss, logits = net.train_batch(np.zeros((2, 1, 2, 5)), np.array([0, 1]))
    assert logits.shape == (2, 10) and math.isfinite(loss)


@pytest.mark.parametrize(
    "layer, x_shape",
    [
        (Conv2D(2, 3, 3, stride=2, padding=1), (2, 2, 5, 5)),
        (Dense(4, 3), (5, 4)),
        (BatchNorm2D(2), (3, 2, 2, 2)),
    ],
)
def test_backward_params_fills_the_grads_backward_fills(layer, x_shape):
    rng = np.random.default_rng(0)
    x = rng.normal(size=x_shape)
    grad = rng.normal(size=layer.forward(x, training=True).shape)
    layer.backward(grad)
    full = [g.copy() for g in _grads([layer])]
    for g in layer.grads.values():
        g[...] = np.nan
    assert layer.backward_params(grad) is None
    for g, g_full in zip(_grads([layer]), full):
        _same_bits(g, g_full)


def test_patch_index_is_kept_per_image_not_per_batch():
    """Batch sizes 20, 13 and 200 of one conv share one index, so the
    cache holds what one image's cols hold, whatever the batch."""
    layer = Conv2D(2, 3, 3, padding=1)
    rng = np.random.default_rng(0)
    layers_mod._patch_index.cache_clear()
    for n in (20, 13, 200):
        out = layer.forward(rng.normal(size=(n, 2, 6, 6)), training=True)
        layer.backward(np.ones_like(out))
    info = layers_mod._patch_index.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    index = layers_mod._patch_index(2, 6, 6, 3, 3, (1, 1), (1, 1))
    assert index.shape == (6 * 6 * 2 * 3 * 3,) and not index.flags.writeable
