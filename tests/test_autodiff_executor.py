"""Schedule-driven backprop: gradients identical to store-all, always."""

import numpy as np
import pytest

from repro.autodiff import (
    DenseLayer,
    ReLULayer,
    SequentialNet,
    run_schedule,
)
from repro.checkpointing import (
    Schedule,
    adjoint,
    advance,
    hetero_schedule,
    revolve_schedule,
    snapshot,
    sqrt_schedule,
    store_all_schedule,
    uniform_schedule,
    ChainSpec,
)
from repro.errors import ExecutionError, ShapeError


def dense_chain(depth, width, rng):
    layers = []
    for i in range(depth - 1):
        layers.append(DenseLayer(width, width, rng, name=f"fc{i}"))
    layers.append(DenseLayer(width, 3, rng, name="head"))
    return SequentialNet(layers, name="chain")


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestGradientEquivalence:
    @pytest.mark.parametrize("make", [
        lambda l: revolve_schedule(l, 1),
        lambda l: revolve_schedule(l, 2),
        lambda l: revolve_schedule(l, 4),
        lambda l: uniform_schedule(l, 3),
        lambda l: sqrt_schedule(l),
        lambda l: store_all_schedule(l),
    ])
    def test_identical_to_store_all(self, rng, make, small_cnn=None):
        net = dense_chain(9, 10, rng)
        x = rng.normal(size=(6, 10))
        y = rng.integers(0, 3, size=6)
        loss_ref, grads_ref, _ = net.train_step(x, y)
        res = run_schedule(net, make(len(net)), x, y)
        assert res.loss == loss_ref  # bit-identical, same op order
        assert set(res.grads) == set(grads_ref)
        for k in grads_ref:
            assert np.array_equal(res.grads[k], grads_ref[k]), k

    def test_cnn_equivalence(self, rng, small_cnn, small_batch):
        x, y = small_batch
        loss_ref, grads_ref, _ = small_cnn.train_step(x, y)
        res = run_schedule(small_cnn, revolve_schedule(len(small_cnn), 3), x, y)
        assert res.loss == pytest.approx(loss_ref, rel=1e-15)
        for k in grads_ref:
            assert np.allclose(res.grads[k], grads_ref[k], rtol=1e-14, atol=1e-14)

    def test_hetero_schedule_on_real_net(self, rng, small_cnn, small_batch):
        x, y = small_batch
        sizes = small_cnn.activation_bytes(x)
        spec = ChainSpec(
            name="cnn",
            act_bytes=tuple(sizes),
            fwd_cost=(1.0,) * len(small_cnn),
            bwd_cost=(1.0,) * len(small_cnn),
        )
        sch = hetero_schedule(spec, 3)
        res = run_schedule(small_cnn, sch, x, y)
        loss_ref, grads_ref, _ = small_cnn.train_step(x, y)
        assert res.loss == pytest.approx(loss_ref, rel=1e-15)
        for k in grads_ref:
            assert np.allclose(res.grads[k], grads_ref[k], rtol=1e-14, atol=1e-14)


class TestMemoryBehaviour:
    def test_fewer_slots_lower_peak(self, rng):
        """On a homogeneous chain, peak live bytes fall with slot count."""
        net = dense_chain(16, 64, rng)
        x = rng.normal(size=(32, 64))
        y = rng.integers(0, 3, size=32)
        peaks = []
        for c in (15, 8, 4, 2, 1):
            res = run_schedule(net, revolve_schedule(len(net), c), x, y)
            peaks.append(res.peak_bytes)
        assert peaks == sorted(peaks, reverse=True)

    def test_forward_steps_match_simulator_cost(self, rng):
        from repro.checkpointing import opt_forwards, simulate

        net = dense_chain(10, 8, rng)
        x = rng.normal(size=(4, 8))
        y = rng.integers(0, 3, size=4)
        sch = revolve_schedule(len(net), 3)
        res = run_schedule(net, sch, x, y)
        assert res.forward_steps == opt_forwards(len(net), sch.slots)
        assert res.replay_steps == len(net)

    def test_peak_slot_bytes_bounded_by_budget_dp(self, rng):
        from repro.checkpointing import budget_schedule

        net = dense_chain(8, 12, rng)
        x = rng.normal(size=(4, 12))
        y = rng.integers(0, 3, size=4)
        sizes = net.activation_bytes(x)
        spec = ChainSpec(
            name="c",
            act_bytes=tuple(sizes),
            fwd_cost=(1.0,) * 8,
            bwd_cost=(1.0,) * 8,
        )
        budget = sizes[0] + 2 * max(sizes)
        sch = budget_schedule(spec, budget, levels=32)
        res = run_schedule(net, sch, x, y)
        assert res.peak_slot_bytes <= budget

    def test_dense_relu_revolve_accounting_pinned(self):
        """16 dense/ReLU layers of width 192, batch 64, Revolve c=3: the
        MemoryMeter's byte peaks and the step counts are pinned exactly,
        so any change to the hold/release accounting shows, and the
        gradients equal store-all's bit for bit."""
        r = np.random.default_rng(0)
        layers = [
            ReLULayer(name=f"r{i}") if i % 2 else DenseLayer(192, 192, r, name=f"fc{i}")
            for i in range(15)
        ]
        net = SequentialNet(layers + [DenseLayer(192, 10, r, name="head")])
        x = r.normal(size=(64, 192))
        y = r.integers(0, 10, size=64)
        res = run_schedule(net, revolve_schedule(16, 3), x, y)
        assert res.loss.hex() == "0x1.449a2952f4a92p+2"
        assert res.peak_bytes == 491_520
        assert res.peak_slot_bytes == 294_912
        assert (res.forward_steps, res.replay_steps) == (33, 16)
        loss_ref, grads_ref, _ = net.train_step(x, y)
        assert res.loss == loss_ref
        assert set(res.grads) == set(grads_ref)
        for k in grads_ref:
            assert np.array_equal(res.grads[k], grads_ref[k]), k


class TestRejections:
    def test_length_mismatch(self, rng):
        net = dense_chain(4, 8, rng)
        sch = revolve_schedule(5, 2)
        with pytest.raises(ExecutionError):
            run_schedule(net, sch, rng.normal(size=(2, 8)), np.array([0, 1]))

    def test_malformed_schedule_rejected(self, rng):
        net = dense_chain(2, 8, rng)
        bad = Schedule(
            strategy="bad", length=2, slots=1,
            actions=(snapshot(0), advance(1), adjoint(1)),  # wrong order
        )
        with pytest.raises(ExecutionError):
            run_schedule(net, bad, rng.normal(size=(2, 8)), np.array([0, 1]))

    def test_incomplete_schedule_rejected(self, rng):
        net = dense_chain(2, 8, rng)
        partial = Schedule(
            strategy="bad", length=2, slots=1,
            actions=(snapshot(0), advance(1), adjoint(2)),
        )
        with pytest.raises(ExecutionError):
            run_schedule(net, partial, rng.normal(size=(2, 8)), np.array([0, 1]))

    def test_unique_layer_names_required(self, rng):
        with pytest.raises(ShapeError):
            SequentialNet([ReLULayer("a"), ReLULayer("a")])
