"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import (
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    ReLULayer,
    SequentialNet,
)
from repro.autodiff.data import image_blobs
from repro.engine import SimBackend


class RecordingBackend(SimBackend):
    """A :class:`SimBackend` that logs every call the VM makes on it.

    Being a subclass, it always takes the VM's per-action dispatch loop
    (the vectorized path serves plain ``SimBackend`` only).
    """

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.calls: list[tuple] = []

    def begin(self) -> None:
        self.calls.append(("begin",))
        super().begin()

    def advance(self, start: int, stop: int) -> float:
        self.calls.append(("advance", start, stop))
        return super().advance(start, stop)

    def snapshot(self, slot: int, index: int) -> float:
        self.calls.append(("snapshot", slot, index))
        return super().snapshot(slot, index)

    def restore(self, slot: int, index: int) -> float:
        self.calls.append(("restore", slot, index))
        return super().restore(slot, index)

    def free(self, slot: int, index: int) -> float:
        self.calls.append(("free", slot, index))
        return super().free(slot, index)

    def adjoint(self, step: int) -> tuple[float, float]:
        self.calls.append(("adjoint", step))
        return super().adjoint(step)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def fresh_schedule_cache():
    """Empty schedule cache (and zeroed cache metrics) before and after.

    Tests asserting on hit/miss counts or cache identity must start from
    a known-empty cache regardless of what ran before them in the suite.
    """
    from repro.checkpointing import clear_schedule_cache

    clear_schedule_cache()
    yield
    clear_schedule_cache()


@pytest.fixture
def small_cnn(rng: np.random.Generator) -> SequentialNet:
    """An 8-layer conv chain used across executor tests."""
    return SequentialNet(
        [
            ConvLayer(1, 4, 3, rng, padding=1, name="c1"),
            ReLULayer("r1"),
            MaxPoolLayer(2, "p1"),
            ConvLayer(4, 8, 3, rng, padding=1, name="c2"),
            ReLULayer("r2"),
            FlattenLayer("fl"),
            DenseLayer(8 * 4 * 4, 16, rng, "d1"),
            DenseLayer(16, 3, rng, "d2"),
        ],
        name="small_cnn",
    )


@pytest.fixture
def small_batch(rng: np.random.Generator):
    data = image_blobs(n_per_class=6, num_classes=3, size=8, rng=rng)
    return data.x[:8], data.y[:8]
