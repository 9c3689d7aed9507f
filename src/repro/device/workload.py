"""Training workload descriptions consumed by the device simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..models.flops import model_training_flops
from ..models.network import Sequential

__all__ = ["TrainingWorkload"]


@dataclass(frozen=True)
class TrainingWorkload:
    """A local-training job: N samples through a model for E epochs.

    Only the FLOP footprint matters to the device simulator; the actual
    learning happens separately in :mod:`repro.federated`. ``batch_size``
    matches the paper's on-device setting (20) and sets the granularity
    of the simulated per-batch trace.
    """

    flops_per_sample: float
    n_samples: int
    batch_size: int = 20
    epochs: int = 1
    model_name: str = "model"

    def __post_init__(self) -> None:
        if self.flops_per_sample <= 0:
            raise ValueError("flops_per_sample must be positive")
        if self.n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")

    @classmethod
    def from_model(
        cls,
        model: Sequential,
        n_samples: int,
        batch_size: int = 20,
        epochs: int = 1,
    ) -> "TrainingWorkload":
        """Derive the workload from an actual model's FLOP count."""
        return cls(
            flops_per_sample=model_training_flops(model),
            n_samples=n_samples,
            batch_size=batch_size,
            epochs=epochs,
            model_name=model.name,
        )

    @property
    def n_batches(self) -> int:
        """Total batches over all epochs (last batch may be partial)."""
        per_epoch = -(-self.n_samples // self.batch_size)
        return per_epoch * self.epochs
