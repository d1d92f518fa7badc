"""Schedule-driven backpropagation on real tensors.

:func:`run_schedule` executes any :class:`~repro.checkpointing.Schedule`
(Revolve, uniform, heterogeneous-DP, store-all) against a
:class:`~repro.autodiff.network.SequentialNet` and a real batch:

* ADVANCE runs layer forwards, discarding intermediates;
* SNAPSHOT / RESTORE / FREE move activations through checkpoint slots;
* ADJOINT replays the step's forward *inside* the layer's backward (the
  layers recompute their context from the stored input) and chains the
  gradient.

Execution is one :func:`repro.engine.execute` of the schedule's
compiled program — the same virtual machine that backs
:func:`repro.checkpointing.simulate`, here driving a
:class:`~repro.engine.tensor.TensorBackend`.  The program is compiled
once per schedule object, so a training loop that reuses its schedule
validates it once and never again; an invalid schedule raises
:class:`~repro.errors.ExecutionError` before any layer runs.  This
module adds the tracing span and the :class:`CheckpointedResult` (loss
and gradients, which the engine's ``RunStats`` does not carry).

The result's gradients are **numerically identical** to the store-all
reference (``SequentialNet.train_step``) — floating-point operations are
performed in the same order per layer — while the measured live-byte peak
tracks the slot budget.  This is the end-to-end proof that the paper's
optimal checkpointing actually trains networks on a memory-constrained
device.

Every execution runs under the process tracer (:mod:`repro.obs`): one
``exec``-category span for the call, one ``action``-category span per
schedule action (ADVANCE/SNAPSHOT/RESTORE/FREE/ADJOINT) with the
:class:`~.meter.MemoryMeter` peaks attached as tags on the run span.
With the default :class:`~repro.obs.NullTracer` the engine skips all
per-step bookkeeping (``benchmarks/bench_obs_overhead.py`` holds this
wrapper to ≤ 5% over a bare ``execute``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checkpointing.schedule import Schedule
from ..obs import get_metrics, get_tracer
from .loss import softmax_cross_entropy
from .network import GradMap, SequentialNet

__all__ = ["CheckpointedResult", "run_schedule"]


@dataclass
class CheckpointedResult:
    """Outcome of a checkpointed training step."""

    loss: float
    grads: GradMap
    #: peak live activation+gradient bytes during execution
    peak_bytes: int
    #: peak bytes held in checkpoint slots only
    peak_slot_bytes: int
    #: forward layer executions due to ADVANCE actions
    forward_steps: int
    #: forward replays inside adjoints (== number of layers)
    replay_steps: int


def run_schedule(
    net: SequentialNet,
    schedule: Schedule,
    x: np.ndarray,
    labels: np.ndarray,
    loss_fn=softmax_cross_entropy,
    *,
    on_step=None,
) -> CheckpointedResult:
    """Execute ``schedule`` to compute loss and gradients for one batch.

    Raises :class:`~repro.errors.ExecutionError` on schedule/network
    length mismatch or invariant violations (the compiler's rules and
    messages, shared with the abstract simulator), before any tensor
    work starts.  ``on_step`` is an optional VM step callback invoked
    with a :class:`~repro.engine.stats.StepStats` after every schedule
    action.
    """
    # Imported lazily: repro.engine.tensor imports this package's leaves.
    from ..engine.hooks import action_span_hook, compose
    from ..engine.tensor import TensorBackend
    from ..engine.vm import execute

    tracer = get_tracer()
    backend = TensorBackend(net, x, labels, loss_fn)
    with tracer.span(
        "run_schedule",
        category="exec",
        strategy=schedule.strategy,
        length=len(net),
        slots=schedule.slots,
    ) as run_span:
        hook = compose(action_span_hook(tracer) if tracer.enabled else None, on_step)
        run = execute(schedule, backend, on_step=hook)
        assert backend.loss_value is not None
        run_span.set_tag("peak_bytes", run.peak_bytes)
        run_span.set_tag("peak_slot_bytes", run.peak_slot_bytes)
        run_span.set_tag("forward_steps", run.forward_steps)
        run_span.set_tag("replay_steps", run.replay_steps)
        m = get_metrics()
        m.gauge("executor.peak_bytes").max(run.peak_bytes)
        m.gauge("executor.peak_slot_bytes").max(run.peak_slot_bytes)
        m.counter("executor.replays").inc(run.replay_steps)
        m.counter("executor.forward_steps").inc(run.forward_steps)
    return CheckpointedResult(
        loss=backend.loss_value,
        grads=backend.grads,
        peak_bytes=run.peak_bytes,
        peak_slot_bytes=run.peak_slot_bytes,
        forward_steps=run.forward_steps,
        replay_steps=run.replay_steps,
    )
