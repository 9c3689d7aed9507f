"""The two statistics rules the benchmark reports by."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile", "highest_percentile"]

_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n_samples: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``n_samples`` (1-based);
    the epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991."""
    return max(1, math.ceil(p / 100.0 * n_samples - 1e-9))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), p) - 1]


def highest_percentile(n_samples: int) -> float:
    """The highest reportable percentile: the largest of 50/90/95/99/
    99.9 that leaves at least ten samples beyond it."""
    best = _PERCENTILES[0]
    for p in _PERCENTILES:
        if n_samples - _rank(n_samples, p) >= 10:
            best = p
    return best
