"""FLOP aggregation and coarse time estimation for symbolic graphs.

Forward FLOPs come from each layer's :meth:`~repro.graph.layer.Layer.flops`
method.  Backward cost is modelled with the standard convention that a
backward pass costs about twice a forward pass (it computes both input and
weight gradients); the factor is configurable because the paper's Figure 1
analysis assumes backward ≈ forward for its "2ρl" budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, at_least, positive
from .network import Graph

__all__ = ["FlopReport", "flop_report", "estimate_step_seconds"]

#: Default backward/forward cost ratio used outside of the paper's model.
DEFAULT_BACKWARD_RATIO = 2.0


@dataclass(frozen=True)
class FlopReport:
    """Per-sample FLOP totals for a graph."""

    forward: int
    backward_ratio: float = DEFAULT_BACKWARD_RATIO

    @property
    def backward(self) -> float:
        return self.forward * self.backward_ratio

    @property
    def training_step(self) -> float:
        """FLOPs for one fwd+bwd pass per sample."""
        return self.forward + self.backward


def flop_report(graph: Graph, backward_ratio: float = DEFAULT_BACKWARD_RATIO) -> FlopReport:
    """Aggregate per-sample FLOPs for ``graph``."""
    return FlopReport(forward=graph.total_flops_per_sample(), backward_ratio=backward_ratio)


def estimate_step_seconds(
    flops_per_sample: float,
    batch_size: int,
    device_flops_per_s: float,
    efficiency: float = 1.0,
) -> float:
    """Coarse wall-clock estimate for one step on a device.

    ``efficiency`` in (0, 1] models how much of the device's peak the
    workload achieves (edge CPUs at small batch sizes sit well below peak —
    see :mod:`repro.edge.simulator` for the batch-efficiency curve).
    """
    at_least("batch_size", batch_size, 1)
    if not 0 < efficiency <= 1:
        raise ConfigError(f"efficiency must be in (0, 1], got {efficiency}")
    positive("device_flops_per_s", device_flops_per_s)
    return flops_per_sample * batch_size / (device_flops_per_s * efficiency)
