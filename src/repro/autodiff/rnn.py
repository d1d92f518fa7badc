"""Recurrent chains: checkpointed backpropagation-through-time.

Section IV cites Gruslys et al.'s memory-efficient BPTT — checkpointing's
other classic application.  An RNN unrolled over ``T`` steps *is* a chain
``F_1 .. F_T`` whose steps share weights: each :class:`RNNStepLayer`
consumes the hidden state, reads one timestep of the input sequence
(bound at construction), and produces the next hidden state.  All step
layers alias the *same* parameter arrays, so any checkpoint schedule
drives BPTT unchanged — the only twist is that weight gradients must be
summed across timesteps, which :meth:`UnrolledRNN.combine_grads` does.

The final hidden state feeds a readout; training the whole stack under a
Revolve schedule produces gradients bit-identical to direct BPTT while
holding O(c) instead of O(T) hidden states (property-tested).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, positive
from .layers import DenseLayer, TrainLayer
from .network import GradMap, SequentialNet

__all__ = ["RNNStepLayer", "UnrolledRNN"]


class RNNStepLayer(TrainLayer):
    """One unrolled timestep: ``h' = tanh(h W_h^T + x_t W_x^T + b)``.

    ``params`` alias the arrays owned by the :class:`UnrolledRNN`; the
    input sequence slice ``x_t`` is bound at construction so the chain
    interface stays unary (hidden state in, hidden state out).
    """

    def __init__(
        self,
        shared: dict[str, np.ndarray],
        x_t: np.ndarray,
        name: str,
    ) -> None:
        super().__init__(name)
        self.params = shared  # aliased, not copied
        self.x_t = x_t

    def forward(self, h: np.ndarray) -> np.ndarray:
        if h.ndim != 2 or h.shape[1] != self.params["Wh"].shape[0]:
            raise ShapeError(f"{self.name}: bad hidden state shape {h.shape}")
        z = h @ self.params["Wh"].T + self.x_t @ self.params["Wx"].T + self.params["b"]
        return np.tanh(z)

    def backward(self, h: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        z = h @ self.params["Wh"].T + self.x_t @ self.params["Wx"].T + self.params["b"]
        out = np.tanh(z)
        dz = dy * (1.0 - out * out)
        grads = {
            "Wh": dz.T @ h,
            "Wx": dz.T @ self.x_t,
            "b": dz.sum(axis=0),
        }
        return dz @ self.params["Wh"], grads


class UnrolledRNN:
    """An RNN bound to one input sequence, exposed as a layer chain.

    Parameters
    ----------
    hidden, input_size, num_classes : sizes.
    rng : initialization generator.

    Call :meth:`bind` with a batch of sequences ``(N, T, input_size)``
    to get a :class:`SequentialNet` of ``T`` step layers plus a readout;
    run any schedule on it, then fold the per-step weight gradients with
    :meth:`combine_grads` before the optimizer step.
    """

    def __init__(self, input_size: int, hidden: int, num_classes: int, rng: np.random.Generator) -> None:
        if hidden < 1 or input_size < 1 or num_classes < 1:
            raise ShapeError("sizes must be >= 1")
        self.input_size = input_size
        self.hidden = hidden
        self.shared: dict[str, np.ndarray] = {
            "Wh": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, hidden)),
            "Wx": rng.normal(0.0, 1.0 / np.sqrt(input_size), size=(hidden, input_size)),
            "b": np.zeros(hidden),
        }
        self.readout = DenseLayer(hidden, num_classes, rng, name="readout")

    def bind(self, x_seq: np.ndarray) -> SequentialNet:
        """Unroll over ``x_seq`` of shape (N, T, input_size)."""
        if x_seq.ndim != 3 or x_seq.shape[2] != self.input_size:
            raise ShapeError(f"expected (N, T, {self.input_size}), got {x_seq.shape}")
        T = x_seq.shape[1]
        if T < 1:
            raise ShapeError("need at least one timestep")
        steps: list[TrainLayer] = [
            RNNStepLayer(self.shared, x_seq[:, t, :], name=f"step{t}") for t in range(T)
        ]
        steps.append(self.readout)
        return SequentialNet(steps, name="unrolled_rnn")

    def initial_state(self, batch: int) -> np.ndarray:
        """The chain input x_0: a zero hidden state."""
        return np.zeros((batch, self.hidden))

    def combine_grads(self, grads: GradMap) -> GradMap:
        """Sum shared-weight gradients across timesteps.

        Returns a map keyed for an optimizer over ``[rnn, readout]``
        pseudo-layers: ``("rnn", Wh/Wx/b)`` and ``("readout", W/b)``.
        """
        out: GradMap = {}
        for (layer, pname), g in grads.items():
            key = ("readout", pname) if layer == "readout" else ("rnn", pname)
            if key in out:
                out[key] = out[key] + g
            else:
                out[key] = g.copy()
        return out

    def apply_grads(self, grads: GradMap, lr: float) -> None:
        """Plain SGD on the shared weights + readout."""
        positive("lr", lr)
        combined = self.combine_grads(grads)
        for pname, arr in self.shared.items():
            g = combined.get(("rnn", pname))
            if g is not None:
                arr -= lr * g
        for pname, arr in self.readout.params.items():
            g = combined.get(("readout", pname))
            if g is not None:
                arr -= lr * g

    # -- reference implementation for tests -------------------------------
    def direct_bptt(
        self, x_seq: np.ndarray, labels: np.ndarray, loss_fn
    ) -> tuple[float, GradMap]:
        """Textbook BPTT storing every hidden state (the baseline)."""
        net = self.bind(x_seq)
        loss, grads, _ = net.train_step(self.initial_state(x_seq.shape[0]), labels, loss_fn)
        return loss, self.combine_grads(grads)
