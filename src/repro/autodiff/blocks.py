"""Composite and stochastic layers: residual blocks, avg-pool, dropout.

:class:`ResidualBlockLayer` makes real ResNet-style training compatible
with chain checkpointing: the whole block (body + skip) is *one* chain
step, so the sequential executor can checkpoint at block boundaries,
the only places where a single tensor crosses between blocks.  Its
backward recomputes the block interior from the block input, like every
other layer.

:class:`DropoutLayer` shows how stochastic layers stay replay-exact
under checkpointing: the mask is a pure function of ``(seed, step)``, so
an adjoint's recompute regenerates the identical mask.  Callers bump
``set_step`` once per optimizer step.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, at_least
from .layers import TrainLayer

__all__ = ["ResidualBlockLayer", "AvgPoolLayer", "DropoutLayer"]


class ResidualBlockLayer(TrainLayer):
    """``y = body(x) + proj(x)`` as a single chain step.

    ``body`` is a list of sub-layers applied in sequence; ``proj`` is an
    optional projection layer for the skip path (identity when None).
    Sub-layer parameters are exposed in ``self.params`` under
    ``"<sub>.<param>"`` keys (shared arrays, not copies), so optimizers
    see them like any other layer's parameters.
    """

    def __init__(self, body: list[TrainLayer], proj: TrainLayer | None = None, name: str = "resblock") -> None:
        super().__init__(name)
        if not body:
            raise ShapeError("residual block needs at least one body layer")
        names = [lay.name for lay in body] + ([proj.name] if proj else [])
        if len(set(names)) != len(names):
            raise ShapeError(f"sub-layer names must be unique, got {names}")
        self.body = body
        self.proj = proj
        for sub in self._sublayers():
            for pname, arr in sub.params.items():
                self.params[f"{sub.name}.{pname}"] = arr

    def _sublayers(self) -> list[TrainLayer]:
        return self.body + ([self.proj] if self.proj else [])

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = x
        for sub in self.body:
            y = sub.forward(y)
        skip = self.proj.forward(x) if self.proj else x
        if y.shape != skip.shape:
            raise ShapeError(
                f"{self.name}: body output {y.shape} != skip {skip.shape}; "
                "add a projection layer"
            )
        return y + skip

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        # Recompute the interior from the block input (replay semantics).
        acts = [x]
        for sub in self.body:
            acts.append(sub.forward(acts[-1]))
        grads: dict[str, np.ndarray] = {}
        g = dy
        for i in range(len(self.body) - 1, -1, -1):
            g, sub_grads = self.body[i].backward(acts[i], g)
            for pname, val in sub_grads.items():
                grads[f"{self.body[i].name}.{pname}"] = val
        if self.proj is not None:
            g_skip, proj_grads = self.proj.backward(x, dy)
            for pname, val in proj_grads.items():
                grads[f"{self.proj.name}.{pname}"] = val
        else:
            g_skip = dy
        return g + g_skip, grads


class AvgPoolLayer(TrainLayer):
    """Average pooling with window ``k`` (stride = k, floor crop)."""

    def __init__(self, k: int = 2, name: str = "avgpool") -> None:
        super().__init__(name)
        if k < 1:
            raise ShapeError("pool window must be >= 1")
        self.k = k

    def _crop(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        oh, ow = h // self.k, w // self.k
        return x[:, :, : oh * self.k, : ow * self.k]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW, got {x.ndim}-D")
        k = self.k
        xc = self._crop(x)
        n, c, h, w = xc.shape
        return xc.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        k = self.k
        dx = np.zeros_like(x)
        n, c, oh, ow = dy.shape
        spread = np.repeat(np.repeat(dy, k, axis=2), k, axis=3) / (k * k)
        dx[:, :, : oh * k, : ow * k] = spread
        return dx, {}


class DropoutLayer(TrainLayer):
    """Inverted dropout with replay-deterministic masks.

    The mask depends only on ``(seed, step, input shape)``; within one
    optimizer step every forward replay (ADVANCE or adjoint-internal)
    regenerates the identical mask, so checkpointed gradients remain
    bit-identical to store-all.  Call :meth:`set_step` once per batch.
    """

    def __init__(self, p: float = 0.5, seed: int = 0, name: str = "dropout") -> None:
        super().__init__(name)
        if not 0.0 <= p < 1.0:
            raise ShapeError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.seed = seed
        self._step = 0
        self.training = True

    def set_step(self, step: int) -> None:
        """Advance the mask stream (one step = one optimizer update)."""
        self._step = at_least("step", step)

    def _mask(self, shape: tuple[int, ...]) -> np.ndarray:
        rng = np.random.default_rng((self.seed, self._step))
        return (rng.random(shape) >= self.p).astype(np.float64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            return x
        return x * self._mask(x.shape) / (1.0 - self.p)

    def backward(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        if not self.training or self.p == 0.0:
            return dy, {}
        return dy * self._mask(x.shape) / (1.0 - self.p), {}
