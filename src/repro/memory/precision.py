"""Reduced/mixed-precision what-if transforms on memory accounts.

The paper's analysis is fp32 throughout; a natural extension question for
edge training is how half-precision interacts with checkpointing.  These
transforms rescale an existing :class:`~repro.memory.accounting.MemoryAccount`:

* :func:`cast_account` — uniform recast of weights/activations to a new
  per-element width (pure fp16 training: everything halves);
* :func:`mixed_precision_account` — AMP-style: activations and the
  working weight copy in fp16, the master weights and optimizer state in
  fp32 (the realistic regime; fixed cost shrinks by only ~12% while
  activations halve — so checkpointing remains the bigger lever for the
  batch-dependent part, pinned on ResNet-50 in
  ``tests/test_memory_precision.py``).
"""

from __future__ import annotations

from ..errors import at_least, positive
from .accounting import MemoryAccount

__all__ = ["cast_account", "mixed_precision_account"]


def cast_account(
    acct: MemoryAccount,
    weight_bytes_per_elem: int = 2,
    act_bytes_per_elem: int = 2,
    base_bytes_per_elem: int = 4,
) -> MemoryAccount:
    """Uniformly recast an fp32 account to new element widths."""
    positive("weight_bytes_per_elem", weight_bytes_per_elem)
    positive("act_bytes_per_elem", act_bytes_per_elem)
    positive("base_bytes_per_elem", base_bytes_per_elem)
    wf = weight_bytes_per_elem / base_bytes_per_elem
    af = act_bytes_per_elem / base_bytes_per_elem
    return MemoryAccount(
        model=acct.model,
        policy=f"{acct.policy}+cast(w{weight_bytes_per_elem},a{act_bytes_per_elem})",
        weight_bytes=int(round(acct.weight_bytes * wf)),
        buffer_bytes=int(round(acct.buffer_bytes * wf)),
        fixed_bytes=int(round(acct.fixed_bytes * wf)),
        act_bytes_per_sample=int(round(acct.act_bytes_per_sample * af)),
        input_bytes_per_sample=int(round(acct.input_bytes_per_sample * af)),
    )


def mixed_precision_account(acct: MemoryAccount, weight_copies: int = 4) -> MemoryAccount:
    """AMP regime: fp16 activations + fp16 working weights, fp32 master
    weights, gradients and optimizer state.

    The fixed cost becomes ``(copies - 1) x fp32 + 1 x fp16`` weight
    copies (plus fp32 buffers); activations halve.  ``weight_copies``
    must match the policy the account was built with.
    """
    at_least("weight_copies", weight_copies, 1)
    w = acct.weight_bytes  # one fp32 copy
    fixed = (weight_copies - 1) * w + w // 2 + acct.buffer_bytes
    return MemoryAccount(
        model=acct.model,
        policy=f"{acct.policy}+amp",
        weight_bytes=w,
        buffer_bytes=acct.buffer_bytes,
        fixed_bytes=fixed,
        act_bytes_per_sample=acct.act_bytes_per_sample // 2,
        input_bytes_per_sample=acct.input_bytes_per_sample // 2,
    )
