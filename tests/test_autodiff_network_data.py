"""SequentialNet, MemoryMeter and synthetic datasets."""

import numpy as np
import pytest

from repro.autodiff import (
    DenseLayer,
    MemoryMeter,
    Momentum,
    ReLULayer,
    SequentialNet,
    accuracy,
    batches,
    gaussian_blobs,
    image_blobs,
    softmax_cross_entropy,
)
from repro.autodiff.data import Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestSequentialNet:
    def test_forward_matches_activations_tail(self, rng):
        net = SequentialNet([DenseLayer(4, 4, rng, "a"), ReLULayer("r"), DenseLayer(4, 2, rng, "b")])
        x = rng.normal(size=(3, 4))
        acts = net.activations(x)
        assert len(acts) == 4
        assert np.array_equal(acts[-1], net.forward(x))

    def test_param_bytes(self, rng):
        net = SequentialNet([DenseLayer(4, 4, rng, "a")])
        assert net.param_bytes == (16 + 4) * 8

    def test_train_step_decreases_loss(self, rng):
        net = SequentialNet(
            [DenseLayer(2, 16, rng, "a"), ReLULayer("r"), DenseLayer(16, 3, rng, "b")]
        )
        data = gaussian_blobs(40, 3, 2, rng)
        opt = Momentum(net.layers, lr=0.1)
        first = last = None
        for _ in range(40):
            loss, grads, _ = net.train_step(data.x, data.y)
            opt.step(grads)
            first = first if first is not None else loss
            last = loss
        assert last < first * 0.3
        assert accuracy(net.forward(data.x), data.y) > 0.9

    def test_activation_bytes_per_batch(self, rng):
        net = SequentialNet([DenseLayer(4, 8, rng, "a"), DenseLayer(8, 2, rng, "b")])
        sizes = net.activation_bytes(rng.normal(size=(5, 4)))
        assert sizes == [5 * 4 * 8, 5 * 8 * 8, 5 * 2 * 8]


class TestMemoryMeter:
    def test_peak_tracks_high_water(self):
        m = MemoryMeter()
        m.hold("a", np.zeros(100))
        m.hold("b", np.zeros(200))
        m.release("a")
        m.hold("c", np.zeros(10))
        assert m.peak_bytes == 300 * 8
        assert m.current_bytes == 210 * 8

    def test_replace_same_name(self):
        m = MemoryMeter()
        m.hold("x", np.zeros(100))
        m.hold("x", np.zeros(50))
        assert m.current_bytes == 50 * 8

    def test_release_absent_is_noop(self):
        m = MemoryMeter()
        m.release("nope")
        assert m.current_bytes == 0

    def test_hold_none_releases(self):
        m = MemoryMeter()
        m.hold("x", np.zeros(10))
        m.hold("x", None)
        assert m.current_bytes == 0

    def test_live_snapshot(self):
        m = MemoryMeter()
        m.hold("x", np.zeros(10))
        assert m.live() == {"x": 80}


class TestDatasets:
    def test_gaussian_blobs_shapes(self, rng):
        d = gaussian_blobs(10, 3, 5, rng)
        assert len(d) == 30
        assert d.x.shape == (30, 5)
        assert d.num_classes == 3

    def test_blobs_separable(self, rng):
        d = gaussian_blobs(50, 2, 4, rng, spread=0.5, separation=8.0)
        mid = (d.x[d.y == 0].mean(0) + d.x[d.y == 1].mean(0)) / 2
        side = np.sign((d.x - mid) @ (d.x[d.y == 1].mean(0) - mid))
        acc = max((side == np.where(d.y == 1, 1, -1)).mean(), (side != np.where(d.y == 1, 1, -1)).mean())
        assert acc > 0.95

    def test_image_blobs_nchw(self, rng):
        d = image_blobs(4, 4, 8, rng, channels=2)
        assert d.x.shape == (16, 2, 8, 8)

    def test_batches_cover_everything(self, rng):
        d = gaussian_blobs(10, 2, 3, rng)
        seen = 0
        for xb, yb in batches(d, 7):
            assert len(xb) == len(yb) <= 7
            seen += len(xb)
        assert seen == len(d)

    def test_batches_shuffled_differ(self, rng):
        d = gaussian_blobs(20, 2, 3, rng)
        a = next(iter(batches(d, 8, np.random.default_rng(1))))[0]
        b = next(iter(batches(d, 8, np.random.default_rng(2))))[0]
        assert not np.array_equal(a, b)

    def test_dataset_validation(self, rng):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))

    def test_subset(self, rng):
        d = gaussian_blobs(5, 2, 2, rng)
        sub = d.subset(np.array([0, 1, 2]))
        assert len(sub) == 3

    def test_batch_size_validation(self, rng):
        d = gaussian_blobs(5, 2, 2, rng)
        with pytest.raises(ValueError):
            list(batches(d, 0))
