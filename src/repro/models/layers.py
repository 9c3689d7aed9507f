"""Neural-network layers implemented in pure NumPy.

Every layer follows the same contract:

* ``forward(x, training)`` consumes an input batch and returns the output,
  caching whatever is needed for the backward pass on ``self``.
* ``backward(grad_out)`` consumes the gradient of the loss w.r.t. the
  layer output and returns the gradient w.r.t. the layer input, storing
  parameter gradients on ``self.grads``.
* ``params`` / ``grads`` are dicts keyed by parameter name (empty for
  stateless layers).
* ``backward_params(grad_out)`` fills ``grads`` only. The bottom
  layer's input gradient is never read, so ``Sequential.train_batch``
  calls this on its first layer with parameters and skips the stateless
  layers below it.

Convolutions use an im2col lowering so the inner product runs inside a
single GEMM — the standard trick for making Python-level convolution
competitive (the hot loop lives in BLAS, not the interpreter).

Each kernel is held, bit for bit, to a straightforward reference kept
in ``tests/models/test_kernel_equivalence.py``: :func:`col2im` adds each
image pixel's kernel taps in the ``(i, j)`` order of a loop over kernel
offsets, and :class:`MaxPool2D` picks the window element ``argmax``
picks. Layouts are part of that contract, because reductions downstream
(a bias or batch-norm sum) add in memory order: pool outputs are
C-contiguous NCHW, ``col2im`` returns a C-contiguous padded image (or
its unpadded crop), and a conv's output is its NHWC GEMM product seen
through a transpose. A NaN stays a NaN, but which payload
survives when two NaNs meet in an add is up to each NumPy loop's
machine code.

Gradients keep their activation's layout: every ``backward`` returns
the input gradient with its axes in the memory order of the forward
input's (a conv output's gradient is NHWC seen through a transpose).
The layer keeps that order (:func:`_axis_order`), not the input, and
copies only when the gradient it computed is laid out otherwise. An
elementwise backward then multiplies operands of one layout, and a
conv reads its output gradient's im2col rows as a view.

Shapes follow the NCHW convention: ``(batch, channels, height, width)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "ReLU",
    "Tanh",
    "Flatten",
    "Dropout",
    "im2col",
    "col2im",
]


def _as_pair(v) -> Tuple[int, int]:
    """Normalise an int-or-pair argument to a ``(h, w)`` tuple."""
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"expected int or pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
) -> Tuple[np.ndarray, int, int]:
    """Lower image patches into columns for GEMM-based convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kh, kw:
        Kernel height and width.
    stride:
        ``(stride_h, stride_w)``.
    pad:
        ``(pad_h, pad_w)`` zero padding applied symmetrically.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kh * kw)``. Row ``i``
        holds the receptive field of output pixel ``i`` flattened.
    out_h, out_w:
        Spatial output dimensions.
    """
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = pad
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) with stride {stride} and pad {pad} does not "
            f"fit input of spatial size {h}x{w}"
        )

    if ph or pw:
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    else:
        xp = x
    # One gather per image, rows = output pixels: 1.7-3.3x faster than
    # copying a transposed strided view (same batches as col2im's note).
    index = _patch_index(c, h, w, kh, kw, (sh, sw), (ph, pw))
    cols = xp.reshape(n, c * (h + 2 * ph) * (w + 2 * pw)).take(index, axis=1)
    return cols.reshape(n * out_h * out_w, c * kh * kw), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image.

    Used by the convolution backward pass to accumulate input gradients
    from the per-patch gradients.

    All cells go through one ordered ``np.add.at``, walked last to
    first. Each pixel starts at ``0.0`` and adds its kernel taps in
    ``(i, j)`` order, the order of a loop over kernel offsets, so the
    sums are bit-identical to that loop. Such a loop of strided
    slice-adds pays NumPy's per-call and per-inner-loop overhead
    ``kh * kw`` times; the scatter is one C loop (1.8–3.8× faster on
    batches of 20 images from 8 × 5 × 5 to 64 × 32 × 32, 2-core AMD
    EPYC).
    """
    n, c, h, w = x_shape
    ph, pw = pad
    hp, wp = h + 2 * ph, w + 2 * pw
    index = _patch_index(c, h, w, kh, kw, tuple(stride), tuple(pad))
    cells = (np.arange(n) * (c * hp * wp))[:, None] + index
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    # A cell (b, oy, ox, ch, i, j) lands on pixel (oy*sh + i, ox*sw + j):
    # for one pixel a later output row means a smaller i, so walking the
    # cells backwards visits each pixel's taps in ascending (i, j).
    np.add.at(xp.reshape(-1), cells.reshape(-1)[::-1], cols.reshape(-1)[::-1])
    if ph or pw:
        return xp[:, :, ph : ph + h, pw : pw + w]
    return xp


@lru_cache(maxsize=32)
def _patch_index(
    c: int,
    h: int,
    w: int,
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
) -> np.ndarray:
    """Flat index into one padded ``(c, h, w)`` image of every im2col
    cell, in row-major ``(oy, ox, ch, i, j)`` order.

    Per image, not per batch: it costs what one image's cols cost, and a
    model's conv layers ask for the same few geometries every batch.
    """
    sh, sw = stride
    ph, pw = pad
    hp, wp = h + 2 * ph, w + 2 * pw
    oy, ox, ch, i, j = np.ix_(
        np.arange((hp - kh) // sh + 1), np.arange((wp - kw) // sw + 1),
        np.arange(c), np.arange(kh), np.arange(kw),
    )
    index = ((ch * hp + oy * sh + i) * wp + ox * sw + j).reshape(-1)
    index.setflags(write=False)
    return index


def _axis_order(x: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The axes of ``x`` from the outermost in memory to the innermost,
    or ``None`` when that is ``0, 1, …`` (C order, or a crop of it)."""
    return None if x.flags.c_contiguous else _stride_order(x.strides)


@lru_cache(maxsize=64)
def _stride_order(strides: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """:func:`_axis_order` by strides alone, cached: a model's layers
    see a few layouts, and sorting axes in Python on every batch would
    cost more than some of the kernels it lays out. Ties, such as axes
    of length 1, keep their axis order."""
    order = tuple(sorted(range(len(strides)), key=lambda a: -abs(strides[a])))
    return None if order == tuple(range(len(strides))) else order


@lru_cache(maxsize=64)
def _inverse(order: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(range(len(order)), key=order.__getitem__))


def _empty(
    shape: Tuple[int, ...], order: Optional[Tuple[int, ...]], dtype=np.float64
) -> np.ndarray:
    """An uninitialised array of ``shape`` whose axes lie in memory in
    ``order`` (see :func:`_axis_order`)."""
    if order is None:
        return np.empty(shape, dtype=dtype)
    buf = np.empty([shape[a] for a in order], dtype=dtype)
    return buf.transpose(_inverse(order))


def _in_layout(
    grad: np.ndarray, order: Optional[Tuple[int, ...]]
) -> np.ndarray:
    """``grad`` with its axes in memory in ``order``: ``grad`` itself when
    they already are, else a copy (the values, so the bits, unchanged)."""
    if _axis_order(grad) == order:
        return grad
    out = _empty(grad.shape, order, grad.dtype)
    np.copyto(out, grad)
    return out


def _window_taps(
    x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int]
) -> np.ndarray:
    """The pooling windows of ``x`` as ``kh * kw`` contiguous planes.

    ``taps[i * kw + j]`` is the ``(N, C, out_h, out_w)`` plane of the
    window element at row ``i``, column ``j`` (the column order of
    :func:`im2col`'s rows), so a pass over the windows is a handful of
    whole-plane operations instead of one per window.
    """
    n, c, h, w = x.shape
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"pool ({kh}x{kw}) with stride {stride} does not fit input of "
            f"spatial size {h}x{w}"
        )
    s_n, s_c, s_h, s_w = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(kh, kw, n, c, out_h, out_w),
        strides=(s_h, s_w, s_n, s_c, s_h * sh, s_w * sw),
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(kh * kw, n, c, out_h, out_w)


def _first_max(taps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximum over axis 0 and the tap it came from, as ``argmax`` picks:
    the first tap equal to the maximum (``-0.0`` equals ``0.0``), or the
    first NaN.

    Every step is a whole-array compare, multiply or reduction. A chain
    of ``np.where`` selections would branch on each element and
    mispredict on real activations (~3× slower on a training batch).
    ``np.maximum`` may return either zero of a ``±0`` tie, so the value
    is read back from the winning tap, not taken from the maximum.
    """
    k = len(taps)
    top = np.maximum.reduce(taps, axis=0)
    hit = taps == top
    if np.isnan(top).any():
        hit |= taps != taps
    # The first hit has the highest rank k - index; no hit ranks 0.
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
    arg = k - (hit * rank.reshape((k,) + (1,) * top.ndim)).max(axis=0)
    arg = arg.astype(np.min_scalar_type(k - 1), copy=False)
    # Widen first: a uint8 tap times the plane size must not wrap.
    cells = arg.reshape(-1).astype(np.intp) * top.size + np.arange(top.size)
    return taps.reshape(-1).take(cells).reshape(top.shape), arg


def _add_taps(
    image: np.ndarray, taps: np.ndarray, kh: int, kw: int,
    stride: Tuple[int, int],
) -> None:
    """Adjoint of :func:`_window_taps`: add each tap plane into ``image``
    at its window positions, taps in ``(i, j)`` order (the order
    :func:`col2im` adds them, so overlapping windows sum alike).

    For a pool's few taps over whole planes, ``kh * kw`` slice-adds beat
    :func:`col2im`'s element-wise scatter: lenet_mini's 2 × 2 pool
    backward on a batch of 20 takes 28 µs this way and 52–56 µs through
    ``col2im`` (2-core AMD EPYC, NumPy 2.4).
    """
    sh, sw = stride
    out_h, out_w = taps.shape[-2:]
    for i in range(kh):
        for j in range(kw):
            image[
                :, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw
            ] += taps[i * kw + j]


class Layer:
    """Base class: stateless identity layer with the parameter protocol."""

    #: class-level marker used by the profiler to split conv vs dense params
    kind: str = "other"

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    # -- protocol -----------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Fill ``grads`` without returning the input gradient.

        The default runs :meth:`backward` and drops its result;
        :class:`Conv2D` overrides it to skip its input GEMM and
        :func:`col2im`.
        """
        self.backward(grad_out)

    def param_count(self) -> int:
        """Total number of learnable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of a single sample's output given a single sample's input."""
        return input_shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x W + b``.

    Weights use He initialisation scaled for the fan-in, which keeps
    activations well-conditioned for the ReLU nets in the model zoo.
    """

    kind = "dense"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.params = {
            "W": rng.normal(0.0, scale, (in_features, out_features)).astype(
                np.float64
            ),
            "b": np.zeros(out_features, dtype=np.float64),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects 2-D input, got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects {self.in_features} features, got {x.shape[1]}"
            )
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward")
        self.grads["W"][...] = self._x.T @ grad_out
        self.grads["b"][...] = grad_out.sum(axis=0)
        return _in_layout(grad_out @ self.params["W"].T, _axis_order(self._x))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2D(Layer):
    """2-D convolution via im2col + GEMM.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Int or ``(kh, kw)``.
    stride, padding:
        Int or pair; padding is symmetric zero-padding.
    """

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _as_pair(kernel_size)
        self.stride = _as_pair(stride)
        self.padding = _as_pair(padding)
        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / fan_in)
        self.params = {
            "W": rng.normal(
                0.0, scale, (out_channels, in_channels, kh, kw)
            ).astype(np.float64),
            "b": np.zeros(out_channels, dtype=np.float64),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._x_order: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"Conv2D expects NCHW input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects {self.in_channels} channels, got {x.shape[1]}"
            )
        kh, kw = self.kernel_size
        cols, out_h, out_w = im2col(x, kh, kw, self.stride, self.padding)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ w_mat.T
        out += self.params["b"]
        n = x.shape[0]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )
        if training:
            self._cols = cols
            self._x_shape = x.shape
            self._x_order = _axis_order(x)
        else:
            self._cols = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self._param_grads(grad_out)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        kh, kw = self.kernel_size
        grad = col2im(
            g @ w_mat, self._x_shape, kh, kw, self.stride, self.padding
        )
        return _in_layout(grad, self._x_order)

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._param_grads(grad_out)

    def _param_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Fill ``grads`` and return ``grad_out`` as im2col-aligned rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward")
        # (N, Cout, H, W) -> (N*H*W, Cout) to line up with im2col rows: a
        # view when grad_out has the output's NHWC layout, else a copy.
        g = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.grads["W"][...] = (g.T @ self._cols).reshape(
            self.params["W"].shape
        )
        self.grads["b"][...] = g.sum(axis=0)
        return g

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        kh, kw = self.kernel_size
        sh, sw = self.stride
        ph, pw = self.padding
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class MaxPool2D(Layer):
    """Max pooling with square or rectangular windows.

    The window maximum is found by whole-plane compares over the window
    taps (:func:`_first_max`), not by an ``argmax`` per window over
    im2col rows. The backward pass routes ``grad_out`` to the winning
    tap and adds ``0.0 × grad`` to every other tap of the window, so an
    infinite gradient leaves NaN there, as the product of a 0/1 mask
    with the gradient does.

    When the windows tile the input (stride equal to the pool, which
    divides the input), each input pixel lies in exactly one window, so
    the backward writes ``hits × grad + 0.0`` once through one strided
    view of all the taps (``0.0 + tap`` has the same bits, ``-0.0``
    included) instead of zero-filling the image and adding ``kh * kw``
    tap planes: 83 → 48 µs for lenet_mini's 2 × 2 pool at batch 20
    (2-core Xeon under KVM, NumPy 2.4).
    """

    def __init__(self, pool_size=2, stride=None) -> None:
        super().__init__()
        self.pool_size = _as_pair(pool_size)
        self.stride = _as_pair(stride) if stride is not None else self.pool_size
        self._arg: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._x_order: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        kh, kw = self.pool_size
        out, arg = _first_max(_window_taps(x, kh, kw, self.stride))
        if training:
            self._arg = arg
            self._x_shape = x.shape
            self._x_order = _axis_order(x)
        else:
            self._arg = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._arg is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward")
        kh, kw = self.pool_size
        ids = np.arange(kh * kw, dtype=self._arg.dtype)
        taps = (self._arg == ids.reshape(-1, 1, 1, 1, 1)) * grad_out
        grad = _empty(self._x_shape, self._x_order)
        h, w = self._x_shape[2:]
        if self.stride == (kh, kw) and h % kh == 0 and w % kw == 0:
            s_n, s_c, s_h, s_w = grad.strides
            windows = np.lib.stride_tricks.as_strided(
                grad,
                shape=(kh, kw) + taps.shape[1:],
                strides=(s_h, s_w, s_n, s_c, s_h * kh, s_w * kw),
            )
            np.add(taps.reshape(windows.shape), 0.0, out=windows)
        else:
            grad[...] = 0.0
            _add_taps(grad, taps, kh, kw, self.stride)
        return grad

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        kh, kw = self.pool_size
        sh, sw = self.stride
        return (c, (h - kh) // sh + 1, (w - kw) // sw + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2D({self.pool_size})"


class AvgPool2D(Layer):
    """Average pooling; used by some profiling architectures."""

    def __init__(self, pool_size=2, stride=None) -> None:
        super().__init__()
        self.pool_size = _as_pair(pool_size)
        self.stride = _as_pair(stride) if stride is not None else self.pool_size
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._x_order: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        kh, kw = self.pool_size
        n, c, h, w = x.shape
        cols, out_h, out_w = im2col(
            x.reshape(n * c, 1, h, w), kh, kw, self.stride, (0, 0)
        )
        out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
        if training:
            self._x_shape = x.shape
            self._x_order = _axis_order(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward")
        n, c, h, w = self._x_shape
        kh, kw = self.pool_size
        scale = 1.0 / (kh * kw)
        grad_cols = np.repeat(
            grad_out.reshape(-1, 1) * scale, kh * kw, axis=1
        )
        grad = col2im(
            grad_cols, (n * c, 1, h, w), kh, kw, self.stride, (0, 0)
        ).reshape(n, c, h, w)
        return _in_layout(grad, self._x_order)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        kh, kw = self.pool_size
        sh, sw = self.stride
        return (c, (h - kh) // sh + 1, (w - kw) // sw + 1)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.maximum(x, 0.0)
        self._mask = (x > 0.0) if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward")
        # the mask has the input's layout (a comparison keeps it)
        out = np.empty_like(self._mask, dtype=grad_out.dtype)
        return np.multiply(grad_out, self._mask, out=out)


class Tanh(Layer):
    """Hyperbolic-tangent activation (classic LeNet nonlinearity)."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a training forward")
        # the output has the input's layout (an elementwise op keeps it)
        out = np.empty_like(self._out, dtype=grad_out.dtype)
        return np.multiply(grad_out, 1.0 - self._out**2, out=out)


class Flatten(Layer):
    """Collapse all non-batch dimensions into one feature axis."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None
        self._order: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        self._order = _axis_order(x) if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward")
        return _in_layout(grad_out.reshape(self._shape), self._order)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class BatchNorm2D(Layer):
    """Batch normalisation over the channel axis of NCHW tensors.

    Training mode normalises with batch statistics and updates the
    running estimates; inference mode uses the running estimates. The
    learnable scale/shift (``gamma``/``beta``) are counted as "other"
    parameters — the profiler's conv/dense split ignores them, matching
    their negligible compute cost.

    .. note:: The running statistics are *not* part of ``params`` and
       therefore not carried by ``Sequential.get_weights`` — FedAvg
       aggregation averages only learnable parameters. This reproduces
       the well-known batch-norm/FedAvg mismatch (each client keeps its
       own running stats); prefer norm-free architectures for federated
       models, as the paper's LeNet/VGG6 configurations do.
    """

    kind = "other"

    def __init__(
        self, num_channels: int, momentum: float = 0.9, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.num_channels = int(num_channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.params = {
            "gamma": np.ones(num_channels, dtype=np.float64),
            "beta": np.zeros(num_channels, dtype=np.float64),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(num_channels)
        self.running_var = np.ones(num_channels)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"BatchNorm2D expects (N, {self.num_channels}, H, W), "
                f"got {x.shape}"
            )
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean
                + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var
                + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[
            None, :, None, None
        ]
        out = (
            self.params["gamma"][None, :, None, None] * x_hat
            + self.params["beta"][None, :, None, None]
        )
        if training:
            self._cache = (x_hat, inv_std, _axis_order(x))
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward")
        x_hat, inv_std, x_order = self._cache
        n, c, h, w = grad_out.shape
        m = n * h * w
        self.grads["gamma"][...] = (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.grads["beta"][...] = grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.params["gamma"][None, :, None, None]
        # standard batch-norm input gradient
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True).transpose(1, 0, 2, 3)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True).transpose(
            1, 0, 2, 3
        )
        grad_in = (
            inv_std[None, :, None, None]
            / m
            * (
                m * g
                - sum_g.transpose(1, 0, 2, 3)
                - x_hat * sum_gx.transpose(1, 0, 2, 3)
            )
        )
        return _in_layout(grad_in, x_order)


class Dropout(Layer):
    """Inverted dropout: active only in training mode."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None
        self._order: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate <= 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        self._order = _axis_order(x)
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return _in_layout(grad_out * self._mask, self._order)
