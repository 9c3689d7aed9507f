"""Per-layer FLOP estimation.

The device simulator converts a training workload into simulated time via
FLOP counts: each (forward + backward) pass over a sample costs a number
of floating-point operations determined by the architecture. The usual
estimates are used:

* convolution forward: ``2 * Cout * H' * W' * Cin * kh * kw`` per sample
  (multiply-accumulate counted as 2 ops);
* dense forward: ``2 * in * out`` per sample;
* backward pass: roughly twice the forward cost (grad w.r.t. inputs and
  grad w.r.t. weights are each about one forward-equivalent GEMM).

These drive *relative* compute intensity between LeNet-class and
VGG-class models; absolute device speed is a calibrated per-device
constant (see :mod:`repro.device.specs`).
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

from .layers import (
    AvgPool2D,
    Conv2DShape,
    DenseShape,
    Flatten,
    Layer,
    MaxPool2D,
)
from .network import Sequential

__all__ = [
    "layer_forward_flops",
    "forward_flops",
    "model_forward_flops",
    "model_training_flops",
    "BACKWARD_FACTOR",
]

#: what the count walks: a built layer, or a weightless conv / dense
#: geometry (:class:`~repro.models.layers.Conv2DShape`,
#: :class:`~repro.models.layers.DenseShape`)
_Countable = Union[Layer, Conv2DShape, DenseShape]

#: backward ≈ 2x forward; training pass = forward + backward = 3x forward.
BACKWARD_FACTOR = 2.0


def layer_forward_flops(
    layer: _Countable, input_shape: Tuple[int, ...]
) -> float:
    """Forward FLOPs for a single sample through ``layer``.

    ``input_shape`` is the per-sample input shape (no batch axis).
    Activation and reshape layers are counted at one op per element,
    pooling at one op per element of the output window product. A
    conv or dense layer is counted from its geometry alone, so its
    weightless shape counts what the built layer does.
    """
    if isinstance(layer, Conv2DShape):
        _, out_h, out_w = layer.output_shape(input_shape)
        kh, kw = layer.kernel_size
        return (
            2.0
            * layer.out_channels
            * out_h
            * out_w
            * layer.in_channels
            * kh
            * kw
        )
    if isinstance(layer, DenseShape):
        return 2.0 * layer.in_features * layer.out_features
    if isinstance(layer, (MaxPool2D, AvgPool2D)):
        c, out_h, out_w = layer.output_shape(input_shape)
        kh, kw = layer.pool_size
        return float(c * out_h * out_w * kh * kw)
    if isinstance(layer, Flatten):
        return 0.0
    # Elementwise layers (ReLU, Tanh, Dropout, ...): one op per element.
    n = 1
    for d in input_shape:
        n *= d
    return float(n)


def forward_flops(
    layers: Iterable[_Countable], input_shape: Tuple[int, ...]
) -> float:
    """Forward FLOPs for one sample of ``input_shape`` through
    ``layers`` in order, each counted at its running input shape."""
    total = 0.0
    shape = input_shape
    for layer in layers:
        total += layer_forward_flops(layer, shape)
        shape = layer.output_shape(shape)
    return total


def model_forward_flops(model: Sequential) -> float:
    """Forward FLOPs for one sample through the whole model.

    Requires the model to carry its ``input_shape``.
    """
    if model.input_shape is None:
        raise ValueError(
            f"model {model.name!r} has no input_shape; FLOPs need it"
        )
    return forward_flops(model.layers, model.input_shape)


def model_training_flops(model: Sequential) -> float:
    """FLOPs for one training pass (forward + backward) over one sample."""
    return model_forward_flops(model) * (1.0 + BACKWARD_FACTOR)
