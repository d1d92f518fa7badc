"""Evaluation utilities: confusion matrices and confidence calibration.

The harvester's confidence threshold is only justified if the teacher's
confidence is *informative* — high-confidence predictions should be more
often correct.  :func:`calibration_curve` measures exactly that (and, in
this world, also exposes where aspect confusion makes the teacher
confidently wrong, motivating the track-end labelling rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, at_least

__all__ = ["confusion_matrix", "per_class_accuracy", "CalibrationBin", "calibration_curve", "expected_calibration_error"]


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts[i, j] = samples of true class i predicted as class j."""
    if y_true.shape != y_pred.shape:
        raise ConfigError("label arrays must have equal shape")
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (y_true, y_pred), 1)
    return m


def per_class_accuracy(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> np.ndarray:
    """Recall per class (NaN-free: classes with no samples report 1.0)."""
    m = confusion_matrix(y_true, y_pred, num_classes)
    totals = m.sum(axis=1)
    out = np.ones(num_classes)
    nz = totals > 0
    out[nz] = np.diag(m)[nz] / totals[nz]
    return out


@dataclass(frozen=True)
class CalibrationBin:
    """One confidence bucket."""

    lo: float
    hi: float
    count: int
    mean_confidence: float
    accuracy: float


def calibration_curve(
    confidences: np.ndarray,
    correct: np.ndarray,
    n_bins: int = 10,
) -> list[CalibrationBin]:
    """Reliability diagram data over equal-width confidence bins."""
    if confidences.shape != correct.shape:
        raise ConfigError("confidences and correct must have equal shape")
    at_least("n_bins", n_bins, 1)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bins: list[CalibrationBin] = []
    for b in range(n_bins):
        lo, hi = float(edges[b]), float(edges[b + 1])
        mask = (confidences > lo) & (confidences <= hi) if b else (confidences >= lo) & (confidences <= hi)
        if not mask.any():
            continue
        bins.append(
            CalibrationBin(
                lo=lo,
                hi=hi,
                count=int(mask.sum()),
                mean_confidence=float(confidences[mask].mean()),
                accuracy=float(correct[mask].mean()),
            )
        )
    return bins


def expected_calibration_error(
    confidences: np.ndarray, correct: np.ndarray, n_bins: int = 10
) -> float:
    """ECE: count-weighted |confidence − accuracy| over the bins."""
    bins = calibration_curve(confidences, correct, n_bins)
    total = sum(b.count for b in bins)
    if total == 0:
        return 0.0
    return float(
        sum(b.count * abs(b.mean_confidence - b.accuracy) for b in bins) / total
    )
