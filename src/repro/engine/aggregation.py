"""How client models become the next model, one rule per mode.

The canonical FedAvg weighted average lives here (the parameter server
re-exports it), next to the three rules and the one driver each serves:

* :class:`SyncFedAvg` — McMahan et al.'s synchronous sample-weighted
  average, behind :class:`AggregationStrategy`, the sync round's
  ``strategy=`` seam (``RoundEngine.run_sync_round`` calls ``aggregate``);
* :class:`StalenessWeighted` — FedAsync-style single-update mixing with
  ``constant`` / ``hinge`` / ``poly`` staleness decay (Xie et al.);
  ``AsyncFederatedSimulation`` calls ``merge``;
* :class:`GossipAverage` — one D-PSGD gossip step under a doubly-
  stochastic mixing matrix; ``DecentralizedSimulation`` calls ``mix``.

The last two are plain classes, not strategies: each has its own
one-method interface and exactly one caller.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "fedavg_aggregate",
    "AggregationStrategy",
    "SyncFedAvg",
    "StalenessWeighted",
    "GossipAverage",
]


def fedavg_aggregate(
    weight_vectors: Sequence[np.ndarray],
    sample_counts: Sequence[int],
) -> np.ndarray:
    """Weighted average of client weight vectors.

    Weights are the clients' local sample counts, as in FedAvg. Clients
    with zero samples are ignored; at least one client must have data.
    """
    if len(weight_vectors) != len(sample_counts):
        raise ValueError("one sample count per weight vector required")
    counts = np.asarray(sample_counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValueError("sample counts must be non-negative")
    active = counts > 0
    if not active.any():
        raise ValueError("no client contributed samples")
    vecs = [
        np.asarray(w)
        for w, keep in zip(weight_vectors, active)
        if keep
    ]
    shapes = {v.shape for v in vecs}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent weight shapes: {shapes}")
    w = counts[active]
    w = w / w.sum()
    out = np.zeros_like(vecs[0])
    for wi, v in zip(w, vecs):
        out += wi * v
    return out


class AggregationStrategy:
    """Base class of the sync round's ``strategy=``: merge one round of
    client updates into the new global model."""

    name: str = "strategy"

    def aggregate(
        self,
        weight_vectors: Sequence[np.ndarray],
        sample_counts: Sequence[int],
        global_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError


class SyncFedAvg(AggregationStrategy):
    """Synchronous FedAvg: replace the global model with the
    sample-count-weighted average of the returned models."""

    name = "fedavg"

    def aggregate(
        self,
        weight_vectors: Sequence[np.ndarray],
        sample_counts: Sequence[int],
        global_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return fedavg_aggregate(weight_vectors, sample_counts)


class StalenessWeighted:
    """FedAsync-style staleness-decayed mixing for single updates.

    The mixing weight at staleness ``tau`` is ``base_mix * s(tau)``:

    * ``constant`` — ``s(tau) = 1``;
    * ``hinge`` — ``s(tau) = 1`` while ``tau <= b``, then
      ``1 / (a * (tau - b))``;
    * ``poly`` — ``s(tau) = (tau + 1) ** -a`` (the default, with
      ``a = 1``: the classic ``base_mix / (1 + tau)``).
    """

    name = "fedasync"

    DECAYS = ("constant", "hinge", "poly")

    def __init__(
        self,
        base_mix: float = 0.6,
        decay: str = "poly",
        a: float = 1.0,
        b: float = 10.0,
    ) -> None:
        if not 0 < base_mix <= 1:
            raise ValueError("base_mix must be in (0, 1]")
        if decay not in self.DECAYS:
            raise ValueError(f"decay must be one of {self.DECAYS}")
        if a <= 0:
            raise ValueError("decay parameter a must be positive")
        if b < 0:
            raise ValueError("decay parameter b must be non-negative")
        self.base_mix = base_mix
        self.decay = decay
        self.a = a
        self.b = b

    def mix_weight(self, staleness: int) -> float:
        """Mixing weight for an update that is ``staleness`` versions
        behind the global model."""
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        if self.decay == "constant":
            return self.base_mix
        if self.decay == "hinge":
            if staleness <= self.b:
                return self.base_mix
            return self.base_mix / (self.a * (staleness - self.b))
        return self.base_mix / (1.0 + staleness) ** self.a

    def merge(
        self,
        global_weights: np.ndarray,
        client_weights: np.ndarray,
        staleness: int,
    ) -> "tuple[np.ndarray, float]":
        """Blend one client update into the global model; returns the
        new weights and the mixing weight actually used."""
        mix = self.mix_weight(staleness)
        new = (1.0 - mix) * global_weights + mix * client_weights
        return new, mix


class GossipAverage:
    """One gossip step: every replica mixes with its graph neighbours
    under a doubly-stochastic mixing matrix."""

    name = "gossip"

    def __init__(self, mixing: np.ndarray) -> None:
        mixing = np.asarray(mixing, dtype=np.float64)
        if mixing.ndim != 2 or mixing.shape[0] != mixing.shape[1]:
            raise ValueError("mixing matrix must be square")
        self.mixing = mixing

    def mix(self, replicas: np.ndarray) -> np.ndarray:
        """Apply one mixing step to the (n_nodes, n_weights) stack."""
        if replicas.shape[0] != self.mixing.shape[0]:
            raise ValueError("one replica row per graph node required")
        return self.mixing @ replicas
