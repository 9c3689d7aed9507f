"""Client-side execution primitives shared by every engine mode.

Local SGD (``train_local``) and batched model evaluation live here
(``repro.federated`` re-exports them unchanged): the engine dispatches
the same local workload whether the surrounding control flow is a
synchronous round, an asynchronous event loop, or a gossip step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..models.network import Sequential
from ..models.optim import SGD

__all__ = ["LocalTrainingResult", "train_local", "evaluate_accuracy"]


@dataclass
class LocalTrainingResult:
    """Outcome of one client's local epoch(s)."""

    weights: np.ndarray
    n_samples: int
    losses: List[float]

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_local(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 1,
    batch_size: int = 20,
    lr: float = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> LocalTrainingResult:
    """Run local SGD on a client's data and return the updated weights.

    The model is mutated in place (callers typically work on a clone of
    the global model); the returned flat weight vector is what the
    client uploads. Batches are reshuffled every epoch.
    """
    n = x.shape[0]
    if n == 0:
        return LocalTrainingResult(model.get_weights(), 0, [])
    if y.shape[0] != n:
        raise ValueError("x and y lengths differ")
    rng = rng or np.random.default_rng(0)
    opt = SGD(
        model.parameters(),
        lr=lr,
        momentum=momentum,
        weight_decay=weight_decay,
    )
    losses: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, _ = model.train_batch(x[idx], y[idx])
            opt.step()
            opt.zero_grad()
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
    return LocalTrainingResult(model.get_weights(), n, losses)


def evaluate_accuracy(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of a model on a labelled set, evaluated in batches
    to bound peak memory on the conv models."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty evaluation set")
    correct = 0
    for start in range(0, n, batch_size):
        logits = model.forward(x[start : start + batch_size], training=False)
        correct += int(
            (logits.argmax(axis=1) == y[start : start + batch_size]).sum()
        )
    return correct / n
