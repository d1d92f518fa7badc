"""Loss functions returning (scalar loss, gradient w.r.t. predictions)."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax_cross_entropy", "softmax", "accuracy"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over integer labels; gradient w.r.t. logits."""
    n = logits.shape[0]
    p = softmax(logits)
    eps = 1e-12
    loss = float(-np.log(np.maximum(p[np.arange(n), labels], eps)).mean())
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy for integer labels."""
    return float((logits.argmax(axis=1) == labels).mean())
