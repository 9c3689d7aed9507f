"""Sequential network container.

The container tracks the conv/dense parameter split the profiler needs
(Sec. IV-B separates convolution parameters from dense parameters when
regressing training time against model size) and exposes weight
get/set as flat vectors, which is what FedAvg aggregation consumes.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .layers import Layer
from .losses import softmax_cross_entropy

__all__ = ["Sequential", "ParameterSplit"]


class ParameterSplit:
    """Parameter counts split by layer kind (conv / dense / other)."""

    def __init__(self, conv: int, dense: int, other: int = 0) -> None:
        self.conv = int(conv)
        self.dense = int(dense)
        self.other = int(other)

    @property
    def total(self) -> int:
        return self.conv + self.dense + self.other

    def as_tuple(self) -> Tuple[int, int]:
        """``(conv, dense)`` pair: the profiler's regression features."""
        return (self.conv, self.dense)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParameterSplit(conv={self.conv}, dense={self.dense}, "
            f"other={self.other})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParameterSplit)
            and (self.conv, self.dense, self.other)
            == (other.conv, other.dense, other.other)
        )


class Sequential:
    """A feed-forward stack of :class:`~repro.models.layers.Layer`.

    Parameters
    ----------
    layers:
        Layers applied in order.
    name:
        Human-readable identifier (e.g. ``"lenet"``); used in profiles
        and experiment reports.
    input_shape:
        Per-sample input shape, e.g. ``(1, 28, 28)``. Required for
        ``summary()``/shape validation but not for running.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        name: str = "model",
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.layers: List[Layer] = list(layers)
        self.name = name
        self.input_shape = tuple(input_shape) if input_shape else None

    # -- running -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    __call__ = forward

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def train_batch(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Forward + backward on one batch; returns ``(loss, logits)``.

        Gradients are left in the layers' ``grads`` dicts for the
        optimiser to consume.
        """
        logits = self.forward(x, training=True)
        loss, grad = softmax_cross_entropy(logits, y)
        self._backward_params(grad)
        return loss, logits

    def _backward_params(self, grad: np.ndarray) -> None:
        """:meth:`backward` without the gradient w.r.t. the input batch.

        Nobody reads that gradient, so the first layer with parameters
        fills only its ``grads`` (a conv skips its input GEMM and
        ``col2im``) and the stateless layers below it are not run.
        Every parameter gradient is the same array :meth:`backward`
        leaves.
        """
        bottom = next(
            (i for i, layer in enumerate(self.layers) if layer.params), None
        )
        if bottom is None:
            return
        for layer in reversed(self.layers[bottom + 1 :]):
            grad = layer.backward(grad)
        self.layers[bottom].backward_params(grad)

    # -- parameters ------------------------------------------------------
    def parameters(self) -> Iterable[Tuple[Dict, Dict]]:
        """``(params, grads)`` pairs for layers that have parameters."""
        return [(l.params, l.grads) for l in self.layers if l.params]

    def param_split(self) -> ParameterSplit:
        """Parameter counts split into conv / dense / other kinds."""
        conv = dense = other = 0
        for layer in self.layers:
            n = layer.param_count()
            if layer.kind == "conv":
                conv += n
            elif layer.kind == "dense":
                dense += n
            else:
                other += n
        return ParameterSplit(conv, dense, other)

    def param_count(self) -> int:
        return self.param_split().total

    def size_bytes(self, dtype_bytes: int = 4) -> int:
        """Serialised model size; float32 by default, as shipped over the
        network in the paper (LeNet 2.5 MB, VGG6 65.4 MB)."""
        return self.param_count() * dtype_bytes

    # -- flat-weight interface (FedAvg) --------------------------------
    def get_weights(self) -> np.ndarray:
        """All parameters concatenated into one flat float64 vector."""
        chunks = []
        for layer in self.layers:
            for name in sorted(layer.params):
                chunks.append(layer.params[name].ravel())
        if not chunks:
            return np.zeros(0)
        return np.concatenate(chunks)

    def set_weights(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of get_weights)."""
        expected = self.param_count()
        if flat.shape != (expected,):
            raise ValueError(
                f"weight vector has shape {flat.shape}, expected ({expected},)"
            )
        offset = 0
        for layer in self.layers:
            for name in sorted(layer.params):
                p = layer.params[name]
                p[...] = flat[offset : offset + p.size].reshape(p.shape)
                offset += p.size

    def clone(self) -> "Sequential":
        """Deep copy: independent parameters, same architecture."""
        return copy.deepcopy(self)

    def save_weights(self, path) -> None:
        """Persist the flat weight vector (plus a shape fingerprint) as
        ``.npz`` — checkpointing for long FL runs."""
        np.savez_compressed(
            path,
            weights=self.get_weights(),
            param_count=np.array([self.param_count()]),
            name=np.array([self.name]),
        )

    def load_weights(self, path) -> None:
        """Restore weights saved by :meth:`save_weights`.

        Raises ``ValueError`` on parameter-count mismatch (wrong
        architecture) rather than silently mis-mapping weights.
        """
        data = np.load(path, allow_pickle=False)
        stored = int(data["param_count"][0])
        if stored != self.param_count():
            raise ValueError(
                f"checkpoint has {stored} parameters but model "
                f"{self.name!r} has {self.param_count()}"
            )
        self.set_weights(np.asarray(data["weights"]))

    # -- introspection --------------------------------------------------
    def summary(self) -> str:
        """Layer-by-layer table of output shapes and parameter counts."""
        lines = [f"Sequential '{self.name}'"]
        shape = self.input_shape
        for layer in self.layers:
            out = layer.output_shape(shape) if shape is not None else "?"
            lines.append(
                f"  {layer!r:<50} out={out!s:<18} params={layer.param_count()}"
            )
            if shape is not None:
                shape = layer.output_shape(shape)
        split = self.param_split()
        lines.append(
            f"  total={split.total} (conv={split.conv}, dense={split.dense})"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)})"
