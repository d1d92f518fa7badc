"""Losses, optimizers and their memory-state accounting."""

import numpy as np
import pytest

from repro.autodiff import (
    SGD,
    DenseLayer,
    Momentum,
    accuracy,
    softmax,
    softmax_cross_entropy,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestSoftmaxCE:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(6, 4)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(3, 5))
        assert np.allclose(softmax(z), softmax(z + 100.0))

    def test_loss_uniform_is_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(10))

    def test_loss_nonnegative_even_when_confident(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 100.0
        loss, _ = softmax_cross_entropy(logits, np.array([1]))
        assert 0.0 <= loss < 1e-9

    def test_gradient_numeric(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        gnum = np.zeros_like(logits)
        for i in range(5):
            for j in range(4):
                logits[i, j] += eps
                lp, _ = softmax_cross_entropy(logits, labels)
                logits[i, j] -= 2 * eps
                lm, _ = softmax_cross_entropy(logits, labels)
                logits[i, j] += eps
                gnum[i, j] = (lp - lm) / (2 * eps)
        assert np.allclose(grad, gnum, atol=1e-7)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [0.0, 3.0]])
        labels = np.array([0, 1, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(0.75)


def quadratic_layer(rng):
    """A single dense layer we drive to fit a fixed target."""
    layer = DenseLayer(4, 3, rng, name="fc")
    x = rng.normal(size=(16, 4))
    target = rng.integers(0, 3, size=16)
    return layer, x, target


def run_steps(opt_cls, rng, steps=60, **kw):
    layer, x, labels = quadratic_layer(rng)
    opt = opt_cls([layer], **kw)
    losses = []
    for _ in range(steps):
        logits = layer.forward(x)
        loss, dy = softmax_cross_entropy(logits, labels)
        _, grads = layer.backward(x, dy)
        opt.step({("fc", k): v for k, v in grads.items()})
        losses.append(loss)
    return losses


class TestOptimizers:
    def test_sgd_decreases_loss(self, rng):
        losses = run_steps(SGD, rng, lr=0.5)
        assert losses[-1] < losses[0] * 0.5

    def test_momentum_decreases_loss(self, rng):
        losses = run_steps(Momentum, rng, lr=0.2)
        assert losses[-1] < losses[0] * 0.5

    def test_state_copies_ladder(self, rng):
        layer = DenseLayer(4, 3, rng)
        assert SGD([layer]).state_copies == 0
        assert Momentum([layer]).state_copies == 1

    def test_state_bytes_after_steps(self, rng):
        layer, x, labels = quadratic_layer(rng)
        opt = Momentum([layer], lr=0.01)
        per_copy = sum(v.nbytes for v in layer.params.values())
        assert opt.state_bytes == per_copy

    def test_lr_validation(self, rng):
        layer = DenseLayer(4, 3, rng)
        with pytest.raises(ValueError):
            SGD([layer], lr=0.0)

    def test_missing_grads_are_skipped(self, rng):
        layer = DenseLayer(4, 3, rng)
        before = layer.params["W"].copy()
        SGD([layer], lr=1.0).step({})
        assert np.array_equal(layer.params["W"], before)
