"""Synthetic datasets for tests, examples and the student-teacher world.

Everything is seeded through an explicit :class:`numpy.random.Generator`
for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigError, at_least

__all__ = ["Dataset", "gaussian_blobs", "image_blobs", "batches"]


@dataclass(frozen=True)
class Dataset:
    """Features + integer labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ConfigError("x and y must have equal first dimension")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self) else 0

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx])


def gaussian_blobs(
    n_per_class: int,
    num_classes: int,
    dim: int,
    rng: np.random.Generator,
    spread: float = 1.0,
    separation: float = 4.0,
) -> Dataset:
    """Gaussian class clusters at random centers."""
    centers = rng.normal(0.0, separation, size=(num_classes, dim))
    xs, ys = [], []
    for c in range(num_classes):
        xs.append(rng.normal(0.0, spread, size=(n_per_class, dim)) + centers[c])
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return Dataset(x[perm], y[perm])


def image_blobs(
    n_per_class: int,
    num_classes: int,
    size: int,
    rng: np.random.Generator,
    channels: int = 1,
    noise: float = 0.3,
) -> Dataset:
    """Tiny NCHW images whose class determines a bright quadrant pattern."""
    xs, ys = [], []
    half = size // 2
    for c in range(num_classes):
        base = np.zeros((channels, size, size))
        qr, qc = divmod(c % 4, 2)
        base[:, qr * half : qr * half + half, qc * half : qc * half + half] = 1.0 + 0.25 * c
        imgs = base[None] + rng.normal(0.0, noise, size=(n_per_class, channels, size, size))
        xs.append(imgs)
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return Dataset(x[perm], y[perm])


def batches(data: Dataset, batch_size: int, rng: np.random.Generator | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (x, y) minibatches, optionally shuffled."""
    at_least("batch_size", batch_size, 1)
    order = np.arange(len(data)) if rng is None else rng.permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = order[start : start + batch_size]
        yield data.x[idx], data.y[idx]
