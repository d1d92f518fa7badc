"""The teacher model: trained frontally, degraded at skewed viewpoints.

A Gaussian nearest-prototype classifier fit on frontal samples (the
"centrally trained" model shipped to every node).  Its accuracy is high
near θ = 0 and collapses as the viewpoint distortion rotates features
away from the frontal prototypes — the quantitative face of the paper's
viewpoint problem.  ``predict`` additionally returns a confidence so the
harvester can act only on firm identifications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff.loss import softmax
from ..errors import ConfigError

__all__ = ["TeacherModel", "_bucketize_accuracy"]


def _bucketize_accuracy(
    correct: np.ndarray, angles_deg: np.ndarray, bins: np.ndarray
) -> dict[float, float]:
    """Shared |angle|-bucket accuracy: key ``bins[b]`` covers
    ``(bins[b-1], bins[b]]`` with the first bucket starting at 0."""
    out: dict[float, float] = {}
    idx = np.digitize(np.abs(angles_deg), bins, right=True)
    for b in range(len(bins)):
        mask = idx == b
        if mask.any():
            out[float(bins[b])] = float(correct[mask].mean())
    return out


@dataclass
class TeacherModel:
    """Nearest-prototype classifier with temperature-scaled confidence."""

    prototypes: np.ndarray  # (num_classes, feature_dim)
    temperature: float = 1.0

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, temperature: float = 1.0) -> "TeacherModel":
        """Fit class means on (frontal) training data."""
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ConfigError("expected x (N, D) and y (N,)")
        classes = int(y.max()) + 1
        protos = np.stack([x[y == c].mean(axis=0) for c in range(classes)])
        return cls(prototypes=protos, temperature=temperature)

    @property
    def num_classes(self) -> int:
        return int(self.prototypes.shape[0])

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Negative squared distances / temperature."""
        d2 = ((x[:, None, :] - self.prototypes[None, :, :]) ** 2).sum(axis=2)
        return -d2 / self.temperature

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(predicted labels, confidences) — confidence is max softmax."""
        p = softmax(self.logits(np.atleast_2d(x)))
        return p.argmax(axis=1), p.max(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        pred, _ = self.predict(x)
        return float((pred == y).mean())

    def accuracy_by_angle(
        self, x: np.ndarray, y: np.ndarray, angles_deg: np.ndarray, bins: np.ndarray
    ) -> dict[float, float]:
        """Accuracy per |angle| bucket; key ``bins[b]`` covers
        ``(bins[b-1], bins[b]]`` (first bucket from 0).  Angles beyond the
        last edge and empty buckets are skipped."""
        pred, _ = self.predict(x)
        return _bucketize_accuracy(pred == y, angles_deg, bins)
