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
* draw without replacement with one random number per eligible row.
  Weighted samplers use the Gumbel-top-k trick (Efraimidis–Spirakis
  weighted reservoir in disguise): perturb ``log w_j`` with Gumbel
  noise and take the top ``k``, one vectorized pass. The uniform
  sampler takes the ``k`` smallest of ``n`` uniforms — the same rows
  from the same generator stream as Gumbel top-k over equal weights,
  without the two logarithms per row (the argument is on
  ``CohortSampler._k_smallest_uniforms``) — and draws them block by
  block into scratch reused across calls, so a million-row draw
  allocates about ``2k`` rows, not ``n``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional

import numpy as np

from .store import _BLOCK, _block_scratch

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
        # ``default_rng(seed)``, with its PCG64 kept at hand so the
        # uniform draw can rewind it
        self._bits = np.random.PCG64(seed)
        self._rng = np.random.Generator(self._bits)

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

        The ``u`` are drawn ``_BLOCK`` at a time into reused scratch
        (``random(out=)`` in pieces is the same stream as one
        ``random(m)``), keeping only the ~2k under ``2k/m``. When fewer
        than ``k`` pass, the generator is rewound to the call's start
        and all ``m`` are drawn at once for a full partition. The rewind
        is ``PCG64.advance(-m)``: each double is one 64-bit step, and
        the state it resets besides (a buffered 32-bit half) is never
        filled by a generator that only draws doubles. Saving
        ``bit_generator.state`` instead would build a dict of Python
        ints on every call: ~14 µs on a ``fleet-lbap``-shaped round,
        where the call runs cold.
        """
        threshold = 2.0 * k / m
        scratch = _block_scratch()
        positions: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for lo in range(0, m, _BLOCK):
            u = scratch[: min(_BLOCK, m - lo)]
            self._rng.random(out=u)
            (hit,) = np.nonzero(u < threshold)
            values.append(u[hit])
            hit += lo
            positions.append(hit)
        below = np.concatenate(positions)
        if below.size < k:
            self._bits.advance(-m)
            return np.argpartition(self._rng.random(size=m), k - 1)[:k]
        return below[np.argpartition(np.concatenate(values), k - 1)[:k]]


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
