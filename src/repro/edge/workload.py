"""Training-workload descriptors for the edge simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import at_least, positive

__all__ = ["TrainingWorkload"]


@dataclass(frozen=True)
class TrainingWorkload:
    """What the node must train.

    ``chain_length``/``slot_act_bytes`` describe the homogenized chain (as
    in Figure 1); ``fixed_bytes`` the weight+optimizer footprint;
    ``flops_per_sample`` the forward cost of one sample;
    ``bwd_ratio`` the backward/forward cost ratio (2.0 is the standard
    convention; the paper's ρ arithmetic uses 1.0).
    """

    model: str
    chain_length: int
    slot_act_bytes_per_sample: int
    fixed_bytes: int
    flops_per_sample: float
    n_images: int
    epochs: int = 1
    batch_size: int = 1
    bwd_ratio: float = 2.0

    def __post_init__(self) -> None:
        for name, lo in (("chain_length", 1), ("n_images", 1), ("epochs", 1), ("batch_size", 1),
                         ("slot_act_bytes_per_sample", 0), ("fixed_bytes", 0), ("bwd_ratio", 0)):
            at_least(name, getattr(self, name), lo)
        positive("flops_per_sample", self.flops_per_sample)

    @property
    def slot_bytes(self) -> int:
        """Bytes one checkpoint slot occupies at this batch size."""
        return self.batch_size * self.slot_act_bytes_per_sample

    @property
    def batches_per_epoch(self) -> int:
        return math.ceil(self.n_images / self.batch_size)

    @property
    def step_flops(self) -> float:
        """fwd+bwd FLOPs of one optimizer step (before recompute)."""
        return self.flops_per_sample * self.batch_size * (1.0 + self.bwd_ratio)

    def with_batch(self, batch_size: int) -> "TrainingWorkload":
        """Copy at a different batch size (for batch sweeps)."""
        return TrainingWorkload(
            model=self.model,
            chain_length=self.chain_length,
            slot_act_bytes_per_sample=self.slot_act_bytes_per_sample,
            fixed_bytes=self.fixed_bytes,
            flops_per_sample=self.flops_per_sample,
            n_images=self.n_images,
            epochs=self.epochs,
            batch_size=batch_size,
            bwd_ratio=self.bwd_ratio,
        )
