"""Per-round cohort sampling over a fleet's eligible devices.

Real mobile FL never trains every eligible device each round: the
server draws a *cohort* from the (potentially million-scale) eligible
population. Jung '24 observes that production selection is heavily
Pareto-skewed — a small fraction of devices contributes most of the
useful data — so besides the uniform baseline this module ships
data-size-biased and Pareto-principle samplers.

All samplers:

* hold their own explicitly seeded ``numpy`` generator, so a given
  ``(seed, eligible set, k)`` always yields the same cohort;
* return a **sorted subset of the eligible indices** (dispatch order
  is index order, like the engine's legacy path);
* draw without replacement in one O(n) vectorized pass. Weighted
  samplers use the Gumbel-top-k trick (Efraimidis–Spirakis weighted
  reservoir in disguise): perturb ``log w_j`` with Gumbel noise and
  take the top ``k``. The uniform sampler takes the ``k`` smallest of
  ``n`` uniforms — the same rows from the same generator stream as
  Gumbel top-k over equal weights, without the two logarithms per row
  (the argument is on ``CohortSampler._k_smallest_uniforms``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "CohortSampler",
    "UniformSampler",
    "DataSizeBiasedSampler",
    "ParetoSampler",
    "available_samplers",
    "make_sampler",
]


class CohortSampler(ABC):
    """Draw a k-device cohort from the eligible population."""

    #: registry key
    name: str = "cohort"
    #: whether :meth:`weights` reads ``data_size``; a driver may skip
    #: gathering the column for a sampler that says ``False``
    uses_data_size: bool = True

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    @abstractmethod
    def weights(
        self, eligible: np.ndarray, data_size: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Unnormalised positive selection weights aligned with
        ``eligible`` (``None`` means uniform)."""

    def sample(
        self,
        eligible: np.ndarray,
        k: int,
        data_size: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw ``k`` distinct devices from ``eligible``.

        ``data_size`` (aligned with ``eligible``) feeds the biased
        strategies. When ``k`` covers the whole eligible set, the set
        is returned as-is (sorted) without consuming randomness.
        """
        idx = np.asarray(eligible, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("eligible must be a 1-D index array")
        if k <= 0:
            raise ValueError("cohort size must be positive")
        if data_size is not None and len(data_size) != idx.size:
            raise ValueError("data_size must align with eligible")
        if idx.size <= k:
            return np.sort(idx)
        w = self.weights(idx, data_size)
        if w is None:
            return np.sort(idx[self._k_smallest_uniforms(idx.size, k)])
        w = np.asarray(w, dtype=np.float64)
        if (w <= 0).any() or not np.isfinite(w).all():
            raise ValueError(
                "selection weights must be positive and finite"
            )
        keys = np.log(w) + self._rng.gumbel(size=idx.size)
        top = np.argpartition(keys, idx.size - k)[idx.size - k :]
        return np.sort(idx[top])

    def _k_smallest_uniforms(self, m: int, k: int) -> np.ndarray:
        """Positions of the ``k`` smallest of ``m`` uniform draws.

        This is Gumbel top-k over equal weights, bit for bit:
        ``Generator.gumbel`` returns ``-log(-log(1 - u))`` of the same
        ``next_double`` ``u`` that ``Generator.random`` returns, one
        per element, and that map is strictly decreasing in ``u`` — so
        the ``k`` largest Gumbel keys sit on the ``k`` smallest ``u``
        and the generator ends at the same stream position. Two
        caveats, each of probability ~2⁻⁵³ per element: ``gumbel``
        redraws when ``next_double`` is exactly 0.0, and an exact tie
        in ``u`` at the k-th place may break either way.
        """
        u = self._rng.random(size=m)
        # about 2k rows pass the threshold; partition those, not all m
        below = np.flatnonzero(u < 2.0 * k / m)
        if below.size < k:
            return np.argpartition(u, k - 1)[:k]
        return below[np.argpartition(u[below], k - 1)[:k]]


class UniformSampler(CohortSampler):
    """Every eligible device equally likely (the FedAvg default)."""

    name = "uniform"
    uses_data_size = False

    def weights(
        self, eligible: np.ndarray, data_size: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        return None


class DataSizeBiasedSampler(CohortSampler):
    """Selection probability proportional to local data size
    (``w_j = max(size_j, 1)^bias``)."""

    name = "data_size"

    def __init__(self, seed: int = 0, bias: float = 1.0) -> None:
        super().__init__(seed)
        if bias <= 0:
            raise ValueError("bias must be positive")
        self.bias = float(bias)

    def weights(
        self, eligible: np.ndarray, data_size: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        if data_size is None:
            raise ValueError(
                "data-size-biased sampling needs per-device data sizes"
            )
        sizes = np.asarray(data_size, dtype=np.float64)
        return np.power(np.maximum(sizes, 1.0), self.bias)


class ParetoSampler(DataSizeBiasedSampler):
    """Pareto-principle bias (Jung '24): the default exponent 1.16 is
    the shape for which ~20% of devices hold ~80% of the selection
    mass over heavy-tailed data sizes."""

    name = "pareto"

    def __init__(self, seed: int = 0, alpha: float = 1.16) -> None:
        super().__init__(seed, bias=alpha)


_SAMPLERS: Dict[str, Callable[..., CohortSampler]] = {
    "uniform": UniformSampler,
    "data_size": DataSizeBiasedSampler,
    "pareto": ParetoSampler,
}


def available_samplers() -> List[str]:
    """Registered sampler names, sorted."""
    return sorted(_SAMPLERS)


def make_sampler(
    name: str, seed: int = 0, **kwargs: float
) -> CohortSampler:
    """Instantiate a sampler by registry name."""
    try:
        factory = _SAMPLERS[name]
    except KeyError:
        raise KeyError(
            f"unknown cohort sampler {name!r}; "
            f"available: {available_samplers()}"
        ) from None
    return factory(seed=seed, **kwargs)
