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
  is index order, like the engine's legacy path), whether handed those
  indices or a boolean mask over the fleet;
* draw without replacement with one random number per eligible row.
  Weighted samplers use the Gumbel-top-k trick (Efraimidis–Spirakis
  weighted reservoir in disguise): perturb ``log w_j`` with Gumbel
  noise and take the top ``k``, one vectorized pass. The uniform
  sampler takes the ``k`` smallest of ``n`` uniforms — the same rows
  from the same generator stream as Gumbel top-k over equal weights,
  without the two logarithms per row (the argument is on
  ``CohortSampler._k_smallest_uniforms``) — and draws them block by
  block into scratch reused across calls, so a million-row draw
  allocates about ``2k`` rows, not ``n``. Long draws are split into
  spans over the worker pool, each span drawing exactly the doubles
  the serial stream has at its positions (a spare ``PCG64`` set to the
  call's start state and advanced there), so the cohort and the
  generator's end state do not depend on the split. Given a mask, the
  uniform sampler maps its ``k`` positions to rows one block at a time
  and never lists the eligible rows at all.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .store import _BLOCK, _block_scratch, _run_spans, _spans

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

        ``eligible`` is an integer array of candidate rows, or a boolean
        mask with one entry per fleet row whose ``True`` rows are the
        candidates: ``sample(mask, k)`` returns the same rows and leaves
        the generator in the same state as ``sample(np.flatnonzero(mask),
        k)``. For a uniform sampler the mask form never lists the
        candidates: it draws ``k`` positions among the ``m`` of them and
        maps each to its row block by block; other samplers list them
        and go on as for an index array. ``data_size`` (aligned with the
        candidates, in row order) feeds the biased strategies. When
        ``k`` covers every candidate they are returned sorted without
        consuming randomness.
        """
        given = np.asarray(eligible)
        if given.ndim != 1:
            raise ValueError("eligible must be a 1-D index array or mask")
        if given.dtype.kind not in "biu":
            raise ValueError(
                "eligible must be an integer index array or a boolean "
                f"mask, not {given.dtype}"
            )
        if k <= 0:
            raise ValueError("cohort size must be positive")
        is_mask = given.dtype == np.bool_
        if is_mask:
            counts = _block_counts(given)
            m = int(counts.sum())
        else:
            idx = given.astype(np.int64, copy=False)
            m = idx.size
        if data_size is not None and len(data_size) != m:
            raise ValueError("data_size must align with eligible")
        if m <= k:
            return np.flatnonzero(given) if is_mask else np.sort(idx)
        if is_mask:
            # UniformSampler's weights are None whatever the rows are; a
            # subclass with its own weights is handed the rows
            if type(self).weights is UniformSampler.weights:
                positions = np.sort(self._k_smallest_uniforms(m, k))
                return _rows_at(given, counts, positions)
            idx = np.flatnonzero(given)
        w = self.weights(idx, data_size)
        if w is None:
            return np.sort(idx[self._k_smallest_uniforms(m, k)])
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

        A draw long enough for the worker pool is split into spans of
        whole blocks (``store._spans``), and every span draws the same
        doubles the serial draw would have at its positions: the first
        from the sampler's own generator, each other from a spare
        ``PCG64`` set to the call's start state and advanced to the
        span's first position — the same one-step-per-double argument
        as the rewind. The spans' hits are joined in position order, so
        the positions and values under the threshold are the serial
        draw's arrays, and the sampler is then advanced to position
        ``m``, where the serial draw ends. Only then does the rewind
        run, so the fallback is unchanged.
        """
        threshold = 2.0 * k / m
        start = self._bits.state if len(_spans(m)) > 1 else {}

        def draw(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
            rng = self._rng if lo == 0 else _spare_generator(start, lo)
            scratch = _block_scratch()
            positions: List[np.ndarray] = []
            values: List[np.ndarray] = []
            for a in range(lo, hi, _BLOCK):
                u = scratch[: min(_BLOCK, hi - a)]
                rng.random(out=u)
                (hit,) = np.nonzero(u < threshold)
                values.append(u[hit])
                hit += a
                positions.append(hit)
            if lo == 0 and hi < m:
                self._bits.advance(m - hi)
            return np.concatenate(positions), np.concatenate(values)

        spans = _run_spans(m, draw)
        below = np.concatenate([hits for hits, _ in spans])
        if below.size < k:
            self._bits.advance(-m)
            return np.argpartition(self._rng.random(size=m), k - 1)[:k]
        u_below = np.concatenate([u for _, u in spans])
        return below[np.argpartition(u_below, k - 1)[:k]]


_spare = threading.local()


def _spare_generator(
    state: Dict[str, Any], position: int
) -> np.random.Generator:
    """This thread's spare generator, set to ``state`` and advanced
    ``position`` doubles: built once per thread, re-set per span."""
    pair: Optional[Tuple[np.random.PCG64, np.random.Generator]] = getattr(
        _spare, "pair", None
    )
    if pair is None:
        bits = np.random.PCG64(0)
        pair = _spare.pair = (bits, np.random.Generator(bits))
    bits, rng = pair
    bits.state = state
    bits.advance(position)
    return rng


def _block_counts(mask: np.ndarray) -> np.ndarray:
    """``True`` entries in each ``_BLOCK`` of ``mask``. Inline even at
    n = 10⁶ (~60 µs): split over two threads it took twice that."""
    return np.array(
        [
            np.count_nonzero(mask[lo : lo + _BLOCK])
            for lo in range(0, mask.size, _BLOCK)
        ],
        dtype=np.int64,
    )


def _rows_at(
    mask: np.ndarray, counts: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """The rows of ``mask``'s ``True`` entries at sorted ``positions``
    among them (``counts`` from :func:`_block_counts`): a block that is
    all ``True`` maps a position to its offset from the block's first
    row; any other lists its own ``True`` rows, one block at a time."""
    ends = np.cumsum(counts)
    cuts = np.searchsorted(positions, ends).tolist()
    rows = np.empty(positions.size, dtype=np.int64)
    first = 0
    for block, last in enumerate(cuts):
        if last == first:
            continue
        lo = block * _BLOCK
        block_mask = mask[lo : lo + _BLOCK]
        local = positions[first:last] - (ends[block] - counts[block])
        if counts[block] == block_mask.size:
            rows[first:last] = local + lo
        else:
            rows[first:last] = np.flatnonzero(block_mask)[local] + lo
        first = last
    return rows


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
