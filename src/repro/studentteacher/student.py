"""In-situ student training on the harvested dataset.

The student is a small MLP built on :mod:`repro.autodiff` and trained by
its :class:`~repro.autodiff.Trainer`.  Training can run *checkpointed*:
given a recompute factor, the trainer picks the minimal Revolve slot count
and every optimizer step executes the schedule-driven backward pass —
the end-to-end tie between Sections III and VI of the paper.  Gradients
are identical either way; only the peak memory differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import (
    DenseLayer,
    Momentum,
    ReLULayer,
    SequentialNet,
    Trainer,
    TrainerConfig,
    accuracy,
)
from ..autodiff.data import Dataset
from ..errors import at_least, positive

__all__ = ["StudentConfig", "StudentModel", "train_student"]


@dataclass(frozen=True)
class StudentConfig:
    """Hyper-parameters of the in-situ student."""

    hidden: int = 32
    depth: int = 3
    epochs: int = 30
    batch_size: int = 16
    lr: float = 0.02
    #: None = store-all; otherwise a recompute factor to train under
    #: (the schedule uses the minimal slots achieving it).
    rho: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("hidden", "depth", "epochs", "batch_size"):
            at_least(name, getattr(self, name), 1)
        positive("lr", self.lr)
        at_least("seed", self.seed)
        if self.rho is not None:
            at_least("rho", self.rho, 1.0)


@dataclass
class StudentModel:
    """A trained student with evaluation helpers."""

    net: SequentialNet
    losses: list[float]
    peak_bytes: int

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return accuracy(self.logits(x), y)

    def accuracy_by_angle(
        self, x: np.ndarray, y: np.ndarray, angles_deg: np.ndarray, bins: np.ndarray
    ) -> dict[float, float]:
        """Accuracy per |angle| bucket — same convention as the teacher's."""
        from .teacher import _bucketize_accuracy

        return _bucketize_accuracy(self.predict(x) == y, angles_deg, bins)


def build_student(feature_dim: int, num_classes: int, cfg: StudentConfig) -> SequentialNet:
    """MLP: depth x (Dense+ReLU) + linear head."""
    rng = np.random.default_rng(cfg.seed)
    layers = []
    prev = feature_dim
    for i in range(cfg.depth):
        layers.append(DenseLayer(prev, cfg.hidden, rng, name=f"fc{i}"))
        layers.append(ReLULayer(name=f"relu{i}"))
        prev = cfg.hidden
    layers.append(DenseLayer(prev, num_classes, rng, name="head"))
    return SequentialNet(layers, name="student")


def train_student(
    data: Dataset,
    num_classes: int,
    cfg: StudentConfig = StudentConfig(),
) -> StudentModel:
    """Train the student through :class:`Trainer`, checkpointed when ``cfg.rho`` is set."""
    net = build_student(data.x.shape[1], num_classes, cfg)
    trainer = Trainer(
        net,
        Momentum(net.layers, lr=cfg.lr),
        TrainerConfig(
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            shuffle_seed=cfg.seed + 1,
            rho=cfg.rho,
        ),
    )
    history = trainer.fit(data)
    return StudentModel(
        net=net, losses=[r.mean_loss for r in history], peak_bytes=trainer.peak_bytes
    )
