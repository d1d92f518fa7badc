"""Optimizers over (layer, param-name) keyed gradients.

Each optimizer reports ``state_bytes`` — the extra per-parameter copies it
keeps — which ties directly into the memory model's ``weight_copies``
convention (SGD: 0 extra, Momentum: 1).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, positive
from .layers import TrainLayer

__all__ = ["Optimizer", "SGD", "Momentum"]

GradMap = dict[tuple[str, str], np.ndarray]


class Optimizer:
    """Base optimizer over a list of layers."""

    #: extra weight-sized copies per parameter (for memory accounting)
    state_copies: int = 0

    def __init__(self, layers: list[TrainLayer], lr: float = 1e-2) -> None:
        self.layers = layers
        self.lr = positive("lr", lr)

    def step(self, grads: GradMap) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Internal state as plain scalars and arrays (copies).

        Together with the layer parameters this fully determines future
        steps, which is what lets :mod:`repro.resilience` snapshots
        resume training bit-identically.  Subclasses with state override
        both this and :meth:`load_state_dict`.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ConfigError(f"{type(self).__name__} carries no state, got {sorted(state)}")

    @property
    def state_bytes(self) -> int:
        per_copy = sum(int(v.nbytes) for lay in self.layers for v in lay.params.values())
        return self.state_copies * per_copy

    def _iter(self, grads: GradMap):
        for layer in self.layers:
            for pname, value in layer.params.items():
                g = grads.get((layer.name, pname))
                if g is not None:
                    yield layer, pname, value, g


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    state_copies = 0

    def step(self, grads: GradMap) -> None:
        for _, _, value, g in self._iter(grads):
            value -= self.lr * g


class Momentum(Optimizer):
    """SGD with heavy-ball momentum."""

    state_copies = 1

    def __init__(self, layers: list[TrainLayer], lr: float = 1e-2, beta: float = 0.9) -> None:
        super().__init__(layers, lr)
        self.beta = beta
        self._vel: dict[tuple[str, str], np.ndarray] = {}

    def step(self, grads: GradMap) -> None:
        for layer, pname, value, g in self._iter(grads):
            key = (layer.name, pname)
            v = self._vel.setdefault(key, np.zeros_like(value))
            v *= self.beta
            v -= self.lr * g
            value += v

    def state_dict(self) -> dict:
        return {"vel": {k: v.copy() for k, v in self._vel.items()}}

    def load_state_dict(self, state: dict) -> None:
        self._vel = {k: np.array(v, copy=True) for k, v in state["vel"].items()}


