"""Online profile refinement via recursive least squares.

Sec. IV-B allows profiles to be built "online through a bootstrapping
phase". In deployment the server keeps observing (data size, measured
round time) pairs every round; this module maintains the time-vs-size
regression incrementally with exponentially-forgetting recursive least
squares, so the profile tracks drift — a device that starts throttling
after sustained rounds (Nexus 6P) gets its curve steepened without a
full re-profiling pass.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .profiler import Curve

__all__ = ["OnlineTimeProfile"]


class OnlineTimeProfile:
    """Recursive least squares over ``time = b0 + b1 * n_samples``.

    Parameters
    ----------
    forgetting:
        Exponential forgetting factor in (0, 1]; 1.0 = ordinary RLS,
        smaller values weight recent rounds more (drift tracking).
    prior_scale:
        Initial covariance scale — large values mean an uninformative
        prior so the first observations dominate.
    """

    def __init__(
        self,
        forgetting: float = 0.95,
        prior_scale: float = 1e6,
        initial_curve: Optional[Callable[[float], float]] = None,
        seed_sigma: tuple = (100.0, 0.5),
    ) -> None:
        if not 0 < forgetting <= 1:
            raise ValueError("forgetting must be in (0, 1]")
        if prior_scale <= 0:
            raise ValueError("prior_scale must be positive")
        self.forgetting = float(forgetting)
        self.theta = np.zeros(2)  # (intercept, slope)
        self.p = np.eye(2) * prior_scale
        self.n_observations = 0
        if initial_curve is not None:
            # Seed theta from an offline curve via two synthetic
            # observations, then *re-inflate* the covariance: two exact
            # points would otherwise pin the parameters so hard that
            # contradicting measurements take hundreds of rounds to win
            # (classic RLS overconfidence). ``seed_sigma`` is the
            # post-seed standard deviation of (intercept [s],
            # slope [s/sample]).
            for n in (1000.0, 5000.0):
                self.observe(n, initial_curve(n))
            si, ss = seed_sigma
            if si <= 0 or ss <= 0:
                raise ValueError("seed_sigma entries must be positive")
            self.p = np.diag([float(si) ** 2, float(ss) ** 2])

    def observe(self, n_samples: float, time_s: float) -> None:
        """Fold in one (size, time) measurement."""
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if time_s < 0:
            raise ValueError("time must be non-negative")
        x = np.array([1.0, float(n_samples)])
        lam = self.forgetting
        px = self.p @ x
        gain = px / (lam + x @ px)
        err = time_s - x @ self.theta
        self.theta = self.theta + gain * err
        self.p = (self.p - np.outer(gain, px)) / lam
        self.n_observations += 1

    def predict(self, n_samples: float) -> float:
        """Current time estimate: the current parameters' :class:`Curve`."""
        return Curve(float(self.theta[0]), float(self.theta[1]))(float(n_samples))

    def curve(self) -> Callable[[float], float]:
        """A snapshot callable usable as a scheduler time curve.

        The snapshot is *live*: it reads the current parameters, so a
        curve handed to a scheduler keeps improving between rounds.
        """
        return self.predict
