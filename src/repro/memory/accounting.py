"""Memory accounting policies.

The footprint of training a network splits into a *fixed* part (weights
plus their gradient/optimizer copies and buffers — independent of batch
size) and a *variable* part (activations — linear in batch size).  The
paper's Table I is exactly linear in batch size, with the fixed part
≈ 3.9–4.0× the fp32 weight bytes, i.e. four weight copies (weights,
gradients, momentum, and a working copy, as with Adam-style optimizers).

:class:`AccountingPolicy` makes every counting decision explicit; the
default :data:`TRAINING_POLICY` mirrors the paper's implied convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import at_least, positive
from ..graph import Graph

__all__ = [
    "OPTIMIZER_WEIGHT_COPIES",
    "AccountingPolicy",
    "MemoryAccount",
    "INFERENCE_POLICY",
    "SGD_POLICY",
    "MOMENTUM_POLICY",
    "ADAM_POLICY",
    "TRAINING_POLICY",
    "account",
]

#: Weight copies implied by each optimizer: weights + gradients (+ state).
OPTIMIZER_WEIGHT_COPIES: dict[str, int] = {
    "none": 1,  # inference: weights only
    "sgd": 2,  # weights + gradients
    "momentum": 3,  # + velocity
    "adam": 4,  # + first and second moments... (grad reused as workspace)
}


@dataclass(frozen=True)
class AccountingPolicy:
    """Every knob that affects the byte count, stated explicitly.

    ``weight_copies``
        Number of full-weight-sized tensors resident during training.
    ``count_buffers``
        Whether BatchNorm running statistics (stored once) are counted.
    ``count_inplace``
        Whether in-place-capable activations (ReLU outputs) count as
        stored activations.
    ``count_input``
        Whether the input batch itself counts toward activations.
    ``activation_copies``
        Multiplier on activation bytes (1.0 = store each output once).
    """

    name: str
    weight_copies: int = 4
    count_buffers: bool = True
    count_inplace: bool = True
    count_input: bool = True
    activation_copies: float = 1.0

    def __post_init__(self) -> None:
        at_least("weight_copies", self.weight_copies, 1)
        positive("activation_copies", self.activation_copies)


INFERENCE_POLICY = AccountingPolicy(
    name="inference", weight_copies=1, count_inplace=False, activation_copies=1.0
)
SGD_POLICY = AccountingPolicy(name="sgd", weight_copies=2)
MOMENTUM_POLICY = AccountingPolicy(name="momentum", weight_copies=3)
ADAM_POLICY = AccountingPolicy(name="adam", weight_copies=4)
#: Default policy reproducing the paper's fixed-cost convention (4 copies).
TRAINING_POLICY = ADAM_POLICY


@dataclass(frozen=True)
class MemoryAccount:
    """Result of applying a policy to a graph."""

    model: str
    policy: str
    weight_bytes: int  # one fp32 copy of trainable weights
    buffer_bytes: int  # non-trainable buffers, stored once
    fixed_bytes: int  # weights x copies + buffers
    act_bytes_per_sample: int  # activations per sample under the policy
    input_bytes_per_sample: int

    def total_bytes(self, batch_size: int) -> int:
        """Fixed + batch-scaled activation bytes."""
        at_least("batch_size", batch_size, 1)
        return self.fixed_bytes + batch_size * self.act_bytes_per_sample


def account(graph: Graph, policy: AccountingPolicy = TRAINING_POLICY) -> MemoryAccount:
    """Apply ``policy`` to ``graph`` and return the byte decomposition."""
    graph.infer()
    weight_bytes = graph.trainable_bytes
    buffer_bytes = graph.buffer_bytes if policy.count_buffers else 0
    fixed = policy.weight_copies * weight_bytes + buffer_bytes

    act = graph.activation_bytes_per_sample(include_inplace=policy.count_inplace)
    input_bytes = 0
    for node in graph.nodes:
        if node.is_source:
            assert node.output is not None
            input_bytes += node.output.nbytes
    # Input nodes are included in activation_bytes_per_sample; remove them
    # when the policy does not count the input batch.
    if not policy.count_input:
        act -= input_bytes
    act = int(round(act * policy.activation_copies))
    return MemoryAccount(
        model=graph.name,
        policy=policy.name,
        weight_bytes=weight_bytes,
        buffer_bytes=buffer_bytes,
        fixed_bytes=fixed,
        act_bytes_per_sample=act,
        input_bytes_per_sample=input_bytes,
    )
