"""Synthetic image datasets standing in for MNIST / CIFAR10.

The evaluation environment has no network access, so the paper's two
datasets are replaced by deterministic synthetic classification tasks
with the same tensor shapes and class count. Each class is anchored by a
random smooth prototype image; samples are the prototype plus pixel
noise, a random per-sample brightness shift, and a small random
translation. This gives a task that is:

* learnable (accuracy rises well above chance with a few epochs),
* not trivially separable (noise scale controls difficulty — the
  "cifar10" preset is harder than "mnist", mirroring the real accuracy
  gap the paper reports),
* sensitive to class coverage: a model never shown class c scores ~0 on
  it, which is exactly the mechanism behind the paper's non-IID results.

All sampling flows through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["Dataset", "SyntheticConfig", "make_dataset", "DATASET_PRESETS"]


@dataclass
class Dataset:
    """An in-memory classification dataset.

    Attributes
    ----------
    x_train, y_train, x_test, y_test:
        Train/test tensors; images are ``(N, C, H, W)`` float64 and
        labels are ``(N,)`` int64.
    name:
        Preset name (``"mnist"``, ``"cifar10"``, ...).
    num_classes:
        Number of label classes.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    name: str = "synthetic"
    num_classes: int = 10

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return tuple(self.x_train.shape[1:])  # type: ignore[return-value]

    @property
    def train_size(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def test_size(self) -> int:
        return int(self.x_test.shape[0])

    def class_indices(self) -> Dict[int, np.ndarray]:
        """Map class id -> indices of training samples with that label."""
        return {
            int(c): np.flatnonzero(self.y_train == c)
            for c in range(self.num_classes)
        }

    def subset(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Training subset ``(x, y)`` selected by index array (a view-like
        fancy-indexed copy; training mutates nothing)."""
        return self.x_train[indices], self.y_train[indices]


@dataclass
class SyntheticConfig:
    """Generation parameters for :func:`make_dataset`."""

    name: str = "synthetic"
    shape: Tuple[int, int, int] = (1, 12, 12)
    num_classes: int = 10
    train_size: int = 2000
    test_size: int = 500
    noise: float = 0.55
    #: stddev of the per-sample brightness shift
    brightness: float = 0.1
    #: max +/- pixels of random translation
    max_shift: int = 1
    #: prototype smoothing passes (higher => smoother class templates)
    smoothing: int = 2
    seed: int = 0


def _smooth(img: np.ndarray, passes: int) -> np.ndarray:
    """Cheap box smoothing via shifted averages (keeps prototypes from
    being pure white noise so translations matter)."""
    out = img
    for _ in range(passes):
        acc = out.copy()
        acc[..., 1:, :] += out[..., :-1, :]
        acc[..., :-1, :] += out[..., 1:, :]
        acc[..., :, 1:] += out[..., :, :-1]
        acc[..., :, :-1] += out[..., :, 1:]
        out = acc / 5.0
    return out


def _translate(batch: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Translate each image by its (dy, dx) pair with zero fill, one
    slice copy per distinct shift."""
    out = np.zeros_like(batch)
    if not len(shifts):
        return out
    h, w = batch.shape[-2:]
    lo, hi = int(shifts.min()), int(shifts.max())
    for dy in range(lo, hi + 1):
        ys0, ys1 = max(0, dy), min(h, h + dy)
        yd0, yd1 = max(0, -dy), min(h, h - dy)
        rows = shifts[:, 0] == dy
        for dx in range(lo, hi + 1):
            idx = np.flatnonzero(rows & (shifts[:, 1] == dx))
            if not len(idx):
                continue
            xs0, xs1 = max(0, dx), min(w, w + dx)
            xd0, xd1 = max(0, -dx), min(w, w - dx)
            out[idx, :, ys0:ys1, xs0:xs1] = batch[idx, :, yd0:yd1, xd0:xd1]
    return out


def _sample_split(
    prototypes: np.ndarray,
    n: int,
    cfg: SyntheticConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` labelled samples from the class prototypes."""
    k = cfg.num_classes
    labels = rng.integers(0, k, size=n)
    x = prototypes[labels].copy()
    x += rng.normal(0.0, cfg.noise, size=x.shape)
    if cfg.brightness:
        x += rng.normal(0.0, cfg.brightness, size=(n, 1, 1, 1))
    if cfg.max_shift:
        shifts = rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=(n, 2))
        x = _translate(x, shifts)
    return x.astype(np.float64), labels.astype(np.int64)


def make_dataset(cfg: Optional[SyntheticConfig] = None, **overrides) -> Dataset:
    """Generate a synthetic dataset from a config (plus keyword overrides).

    The same ``(name, seed, shape, ...)`` always produces the same data.
    """
    if cfg is None:
        cfg = SyntheticConfig()
    if overrides:
        cfg = SyntheticConfig(**{**cfg.__dict__, **overrides})
    if cfg.train_size <= 0 or cfg.test_size <= 0:
        raise ValueError("train_size and test_size must be positive")
    c, h, w = cfg.shape
    if not 0 <= cfg.max_shift <= min(h, w):
        raise ValueError(
            f"max_shift must be in [0, {min(h, w)}] (the smaller image "
            f"side), got {cfg.max_shift}"
        )
    rng = np.random.default_rng(cfg.seed)
    prototypes = rng.normal(0.0, 1.0, size=(cfg.num_classes, c, h, w))
    prototypes = _smooth(prototypes, cfg.smoothing)
    # Normalise prototype energy so difficulty is controlled by cfg.noise.
    norms = np.sqrt((prototypes**2).mean(axis=(1, 2, 3), keepdims=True))
    prototypes /= norms + 1e-12

    x_tr, y_tr = _sample_split(prototypes, cfg.train_size, cfg, rng)
    x_te, y_te = _sample_split(prototypes, cfg.test_size, cfg, rng)
    return Dataset(
        x_train=x_tr,
        y_train=y_tr,
        x_test=x_te,
        y_test=y_te,
        name=cfg.name,
        num_classes=cfg.num_classes,
    )


#: Presets mirroring the paper's two datasets. "mini" variants keep the
#: class structure but shrink resolution/sample count for fast runs; the
#: full-shape variants match MNIST/CIFAR10 tensor shapes and training-set
#: sizes (60K / 50K) for the timing experiments.
DATASET_PRESETS: Dict[str, SyntheticConfig] = {
    "mnist": SyntheticConfig(
        name="mnist",
        shape=(1, 28, 28),
        train_size=60_000,
        test_size=10_000,
        noise=2.2,
        seed=101,
    ),
    "cifar10": SyntheticConfig(
        name="cifar10",
        shape=(3, 32, 32),
        train_size=50_000,
        test_size=10_000,
        noise=8.0,
        seed=202,
    ),
    "mnist_mini": SyntheticConfig(
        name="mnist_mini",
        shape=(1, 12, 12),
        train_size=2_000,
        test_size=600,
        noise=1.5,
        seed=101,
    ),
    "cifar10_mini": SyntheticConfig(
        name="cifar10_mini",
        shape=(3, 12, 12),
        train_size=2_000,
        test_size=600,
        noise=5.0,
        seed=202,
    ),
}


def load_preset(name: str, **overrides) -> Dataset:
    """Build a preset dataset by name, with optional field overrides."""
    try:
        cfg = DATASET_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset preset {name!r}; "
            f"available: {sorted(DATASET_PRESETS)}"
        ) from None
    return make_dataset(cfg, **overrides)
