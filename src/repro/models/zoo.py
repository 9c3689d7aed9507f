"""Model zoo: the paper's two evaluation networks plus fast variants.

The paper (Sec. III, VII) trains:

* **LeNet** [25] — reported at ~205K parameters, wire size 2.5 MB;
* **VGG6** [26] — "five 3x3 convolutional layers with one densely
  connected layer", reported at ~5.45M parameters, wire size 65.4 MB.

We reconstruct both at matching parameter scale (layer widths chosen so
the conv/dense split and total land near the published counts; the paper
does not publish exact widths). ``*_mini`` variants shrink spatial size
and width so the accuracy experiments run in seconds on a laptop while
preserving the conv-then-dense structure; ``mlp``/``logistic`` provide
even faster models for large sweeps.

``profiling_family`` generates the k architectures the offline profiler
(Sec. IV-B, Fig. 4) regresses over — a grid of conv/dense widths giving
well-spread (conv_params, dense_params) features.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from .flops import BACKWARD_FACTOR, forward_flops
from .layers import (
    Conv2D,
    Conv2DShape,
    Dense,
    DenseShape,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from .network import Sequential

__all__ = [
    "lenet",
    "vgg6",
    "lenet_mini",
    "vgg_mini",
    "mlp",
    "logistic",
    "build_model",
    "zoo_training_flops",
    "profiling_family",
    "model_wire_mb",
    "MNIST_SHAPE",
    "CIFAR_SHAPE",
    "MNIST_MINI_SHAPE",
    "CIFAR_MINI_SHAPE",
]

#: canonical per-sample input shapes (C, H, W)
MNIST_SHAPE = (1, 28, 28)
CIFAR_SHAPE = (3, 32, 32)
#: reduced shapes used by the fast synthetic datasets
MNIST_MINI_SHAPE = (1, 12, 12)
CIFAR_MINI_SHAPE = (3, 12, 12)

#: wire sizes measured by the paper (model serialisation incl. updater
#: state), used for communication-time experiments (Table II).
PAPER_WIRE_MB = {"lenet": 2.5, "vgg6": 65.4}


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(0 if seed is None else seed)


class _Conv(NamedTuple):
    """A description's conv layer; its input channels are read off the
    running shape."""

    out_channels: int
    kernel_size: int
    padding: int = 0


class _Dense(NamedTuple):
    """A description's dense layer; its input width is read off the
    running shape."""

    out_features: int


#: a description's entry: a conv, a dense, or a weightless layer class
#: built with no arguments (``MaxPool2D`` is a 2x2 pool)
_Entry = Union[_Conv, _Dense, Type[Layer]]


def _lenet_like(
    conv1: int, conv2: int, hidden: int, num_classes: int
) -> Tuple[_Entry, ...]:
    """conv(conv1,5x5) -> pool -> conv(conv2,5x5) -> pool ->
    dense(hidden) -> dense(K)."""
    return (
        _Conv(conv1, 5), ReLU, MaxPool2D,
        _Conv(conv2, 5), ReLU, MaxPool2D,
        Flatten, _Dense(hidden), ReLU, _Dense(num_classes),
    )


def _vgg_like(chans: Sequence[int], num_classes: int) -> Tuple[_Entry, ...]:
    """3x3 same-padded convs, pooling after the second on, then one
    dense layer."""
    entries: List[_Entry] = []
    for i, ch in enumerate(chans):
        entries += [_Conv(ch, 3, padding=1), ReLU]
        if i >= 1:
            entries.append(MaxPool2D)
    return (*entries, Flatten, _Dense(num_classes))


def _mlp(hidden: int, num_classes: int) -> Tuple[_Entry, ...]:
    return (Flatten, _Dense(hidden), ReLU, _Dense(num_classes))


#: one architecture description per zoo model, as a function of the
#: class count: the weights (:func:`build_model`) and the FLOPs
#: (:func:`zoo_training_flops`) are both read off it
_ARCHITECTURES: Dict[str, Callable[[int], Tuple[_Entry, ...]]] = {
    "lenet": lambda k: _lenet_like(20, 50, 220, k),
    "vgg6": lambda k: _vgg_like((64, 128, 256, 512, 512), k),
    "lenet_mini": lambda k: (
        _Conv(8, 3), ReLU, MaxPool2D, _Conv(16, 3), ReLU,
        Flatten, _Dense(32), ReLU, _Dense(k),
    ),
    "vgg_mini": lambda k: _vgg_like((16, 32, 32), k),
    "mlp": lambda k: _mlp(64, k),
    "logistic": lambda k: (Flatten, _Dense(k)),
}


def _layers(
    entries: Sequence[_Entry],
    input_shape: Tuple[int, ...],
    conv: Callable[..., Any],
    dense: Callable[..., Any],
) -> List[Any]:
    """The layers of a description on ``input_shape``, in order: each
    conv made by ``conv(in_channels, out_channels, kernel_size,
    padding=)`` and each dense by ``dense(in_features, out_features)``,
    with its input width read off the running shape."""
    layers: List[Any] = []
    shape = tuple(input_shape)
    for entry in entries:
        if isinstance(entry, _Conv):
            layer = conv(
                shape[0], entry.out_channels, entry.kernel_size,
                padding=entry.padding,
            )
        elif isinstance(entry, _Dense):
            layer = dense(shape[0], entry.out_features)
        else:
            layer = entry()
        layers.append(layer)
        shape = layer.output_shape(shape)
    return layers


def _build(
    name: str,
    entries: Sequence[_Entry],
    input_shape: Tuple[int, ...],
    seed: Optional[int],
) -> Sequential:
    """A description's network, its weights drawn layer by layer from
    one ``default_rng(seed)`` stream."""
    rng = _rng(seed)
    layers = _layers(
        entries,
        input_shape,
        partial(Conv2D, rng=rng),
        partial(Dense, rng=rng),
    )
    return Sequential(layers, name=name, input_shape=input_shape)


def lenet(
    input_shape: Tuple[int, int, int] = MNIST_SHAPE,
    num_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """LeNet-style CNN at ~205K parameters (matches the paper's count).

    conv(20,5x5) -> pool -> conv(50,5x5) -> pool -> dense(220) -> dense(K).
    On 28x28x1 input this totals ~204K parameters with a conv/dense split
    of roughly 25K/179K.
    """
    return build_model("lenet", input_shape, num_classes, seed)


def vgg6(
    input_shape: Tuple[int, int, int] = CIFAR_SHAPE,
    num_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """VGG6: five 3x3 conv layers + one dense layer (Sec. VII).

    Channel progression 64-128-256-512-512 with pooling after convs 2-5;
    ~3.9M parameters on 32x32x3 input. The paper reports 5.45M without
    publishing widths — the conv-dominated split and the order of
    magnitude are what the profiler and the compute model consume.
    """
    return build_model("vgg6", input_shape, num_classes, seed)


def lenet_mini(
    input_shape: Tuple[int, int, int] = MNIST_MINI_SHAPE,
    num_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """Reduced LeNet for fast experiments: conv(8,3) -> pool -> conv(16,3)
    -> dense(32) -> dense(K)."""
    return build_model("lenet_mini", input_shape, num_classes, seed)


def vgg_mini(
    input_shape: Tuple[int, int, int] = CIFAR_MINI_SHAPE,
    num_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """Reduced VGG: three 3x3 convs + one dense, pooling after convs 2-3."""
    return build_model("vgg_mini", input_shape, num_classes, seed)


def mlp(
    input_shape: Tuple[int, int, int] = MNIST_MINI_SHAPE,
    num_classes: int = 10,
    hidden: int = 64,
    seed: Optional[int] = None,
) -> Sequential:
    """One-hidden-layer perceptron on flattened pixels (fast sweeps)."""
    return _build("mlp", _mlp(hidden, num_classes), input_shape, seed)


def logistic(
    input_shape: Tuple[int, int, int] = MNIST_MINI_SHAPE,
    num_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """Multinomial logistic regression — the fastest surrogate model."""
    return build_model("logistic", input_shape, num_classes, seed)


def _architecture(name: str, num_classes: int) -> Tuple[_Entry, ...]:
    try:
        describe = _ARCHITECTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_ARCHITECTURES)}"
        ) from None
    return describe(num_classes)


def build_model(
    name: str,
    input_shape: Tuple[int, int, int],
    num_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """Build a zoo model by name; raises ``KeyError`` for unknown names."""
    return _build(name, _architecture(name, num_classes), input_shape, seed)


def zoo_training_flops(
    name: str, input_shape: Tuple[int, int, int], num_classes: int = 10
) -> float:
    """``model_training_flops(build_model(name, input_shape,
    num_classes))``, bit for bit, counted from the layer shapes alone:
    no weights are built."""
    layers = _layers(
        _architecture(name, num_classes), input_shape, Conv2DShape, DenseShape
    )
    return forward_flops(layers, input_shape) * (1.0 + BACKWARD_FACTOR)


def model_wire_mb(model: Sequential) -> float:
    """Over-the-wire model size in MB.

    Uses the paper's measured sizes for lenet/vgg6 (DL4J serialisation
    plus optimiser state makes them larger than raw float32 weights);
    other models fall back to ``4 bytes x param_count``.
    """
    if model.name in PAPER_WIRE_MB:
        return PAPER_WIRE_MB[model.name]
    return model.size_bytes(4) / 1e6


def profiling_family(
    input_shape: Tuple[int, int, int] = MNIST_SHAPE,
    num_classes: int = 10,
    conv_widths: Tuple[int, ...] = (4, 8, 16, 32),
    dense_widths: Tuple[int, ...] = (32, 128, 512),
    seed: Optional[int] = None,
) -> List[Sequential]:
    """The k architectures the offline profiler measures (Fig. 4, step 1).

    A grid over first-conv width and dense width produces models whose
    (conv_params, dense_params) features span both regression axes.
    """
    return [
        _build(
            f"prof_c{cw}_d{dw}",
            _lenet_like(cw, cw * 2, dw, num_classes),
            input_shape,
            seed,
        )
        for cw in conv_widths
        for dw in dense_widths
    ]
