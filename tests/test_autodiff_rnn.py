"""Checkpointed BPTT: recurrent chains under Revolve schedules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import UnrolledRNN, run_schedule, softmax_cross_entropy
from repro.checkpointing import (
    opt_forwards,
    revolve_schedule,
    store_all_schedule,
    uniform_schedule,
)
from repro.errors import ShapeError


def make_task(T=12, batch=5, input_size=4, hidden=8, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    rnn = UnrolledRNN(input_size, hidden, classes, rng)
    x_seq = rng.normal(size=(batch, T, input_size))
    labels = rng.integers(0, classes, size=batch)
    return rnn, x_seq, labels


def numeric_grad(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = arr[i]
        arr[i] = old + eps
        fp = f()
        arr[i] = old - eps
        fm = f()
        arr[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g


class TestDirectBPTT:
    def test_gradients_match_numeric(self):
        rnn, x_seq, labels = make_task(T=5, batch=3)

        def loss_value():
            net = rnn.bind(x_seq)
            out = net.forward(rnn.initial_state(3))
            loss, _ = softmax_cross_entropy(out, labels)
            return loss

        _, grads = rnn.direct_bptt(x_seq, labels, softmax_cross_entropy)
        for pname in ("Wh", "Wx", "b"):
            gnum = numeric_grad(loss_value, rnn.shared[pname])
            assert np.allclose(grads[("rnn", pname)], gnum, atol=1e-6), pname
        gnum = numeric_grad(loss_value, rnn.readout.params["W"])
        assert np.allclose(grads[("readout", "W")], gnum, atol=1e-6)

    def test_weight_sharing_is_real(self):
        rnn, x_seq, _ = make_task()
        net = rnn.bind(x_seq)
        rnn.shared["b"][0] = 123.0
        # every step layer sees the mutation (aliased arrays)
        assert all(
            lay.params["b"][0] == 123.0 for lay in net.layers[:-1]
        )


class TestCheckpointedBPTT:
    @given(T=st.integers(2, 16), c=st.integers(1, 5), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_revolve_equals_direct(self, T, c, seed):
        """Checkpointed BPTT == direct BPTT, bit for bit."""
        rnn, x_seq, labels = make_task(T=T, seed=seed)
        loss_ref, grads_ref = rnn.direct_bptt(x_seq, labels, softmax_cross_entropy)
        net = rnn.bind(x_seq)
        sch = revolve_schedule(len(net), c)
        res = run_schedule(net, sch, rnn.initial_state(5), labels)
        combined = rnn.combine_grads(res.grads)
        assert res.loss == loss_ref
        for k in grads_ref:
            assert np.array_equal(combined[k], grads_ref[k]), k

    def test_uniform_and_store_all_agree(self):
        rnn, x_seq, labels = make_task(T=10)
        net = rnn.bind(x_seq)
        h0 = rnn.initial_state(5)
        results = [
            rnn.combine_grads(run_schedule(net, sch, h0, labels).grads)
            for sch in (
                uniform_schedule(len(net), 3),
                store_all_schedule(len(net)),
                revolve_schedule(len(net), 2),
            )
        ]
        for other in results[1:]:
            for k in results[0]:
                assert np.array_equal(other[k], results[0][k])

    def test_memory_shrinks_with_slots(self):
        rnn, x_seq, labels = make_task(T=30, batch=16, hidden=64)
        net = rnn.bind(x_seq)
        h0 = rnn.initial_state(16)
        peaks = []
        for c in (30, 8, 2):
            res = run_schedule(net, revolve_schedule(len(net), c), h0, labels)
            peaks.append(res.peak_bytes)
        assert peaks == sorted(peaks, reverse=True)

    def test_two_slots_cut_memory_eightfold_at_optimal_forwards(self):
        """T = 64: two slots hold ~2 hidden states plus the gradient flow
        versus T + 1 for store-all, at exactly Revolve's P(l, 2) forwards."""
        rnn, x_seq, labels = make_task(T=64, batch=32, input_size=8, hidden=64, classes=4)
        net = rnn.bind(x_seq)
        h0 = rnn.initial_state(32)
        full = run_schedule(net, store_all_schedule(len(net)), h0, labels)
        lean = run_schedule(net, revolve_schedule(len(net), 2), h0, labels)
        assert lean.peak_bytes * 8 < full.peak_bytes
        assert lean.forward_steps == opt_forwards(len(net), 2)

    def test_training_learns(self):
        """A few checkpointed-BPTT steps reduce the loss on a toy task."""
        rnn, x_seq, labels = make_task(T=8, batch=32, seed=3)
        net = rnn.bind(x_seq)
        h0 = rnn.initial_state(32)
        sch = revolve_schedule(len(net), 3)
        first = last = None
        for _ in range(40):
            res = run_schedule(net, sch, h0, labels)
            rnn.apply_grads(res.grads, lr=0.1)
            first = first if first is not None else res.loss
            last = res.loss
        assert last < first * 0.5


class TestValidation:
    def test_bad_sequence_shape(self):
        rnn, _, _ = make_task()
        with pytest.raises(ShapeError):
            rnn.bind(np.zeros((3, 5)))

    def test_zero_timesteps(self):
        rnn, _, _ = make_task()
        with pytest.raises(ShapeError):
            rnn.bind(np.zeros((3, 0, 4)))

    def test_bad_hidden_state(self):
        rnn, x_seq, _ = make_task()
        net = rnn.bind(x_seq)
        with pytest.raises(ShapeError):
            net.layers[0].forward(np.zeros((5, 3)))

    def test_lr_validation(self):
        rnn, x_seq, labels = make_task(T=3)
        _, grads = rnn.direct_bptt(x_seq, labels, softmax_cross_entropy)
        with pytest.raises(ValueError):
            rnn.apply_grads(grads, lr=0.0)
