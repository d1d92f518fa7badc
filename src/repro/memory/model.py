"""The paper's memory model: ``M(k, s) = M_fixed + k · M_act(s)``.

A :class:`MemoryModel` captures a network's footprint as a function of
batch size ``k`` and square image side ``s``.  Two evaluation modes:

* **exact** — rebuild the graph at the requested image size and account it
  (captures convolution rounding, as the paper's Table II values do);
* **scaling law** — quadratic interpolation from the reference size,
  ``M_act(s) ≈ M_act(ref) · (s/ref)²`` (the paper's LinearResNet idealism).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import MemoryBudgetError, at_least
from ..graph import Graph
from .accounting import AccountingPolicy, MemoryAccount, TRAINING_POLICY, account

__all__ = ["MemoryModel", "memory_model_for"]


@dataclass
class MemoryModel:
    """Footprint of one architecture under one accounting policy."""

    name: str
    ref_image: int
    account_ref: MemoryAccount
    builder: Callable[[int], Graph] | None = None
    policy: AccountingPolicy = TRAINING_POLICY
    _cache: dict[int, MemoryAccount] = field(default_factory=dict, repr=False)

    # -- activation scaling -------------------------------------------
    def act_bytes(self, image_size: int, exact: bool = True) -> int:
        """Per-sample activation bytes at ``image_size``."""
        if image_size == self.ref_image:
            return self.account_ref.act_bytes_per_sample
        if exact and self.builder is not None:
            return self._account_at(image_size).act_bytes_per_sample
        scale = (image_size / self.ref_image) ** 2
        return int(round(self.account_ref.act_bytes_per_sample * scale))

    def _account_at(self, image_size: int) -> MemoryAccount:
        if image_size not in self._cache:
            assert self.builder is not None
            self._cache[image_size] = account(self.builder(image_size), self.policy)
        return self._cache[image_size]

    # -- totals ----------------------------------------------------------
    @property
    def fixed_bytes(self) -> int:
        return self.account_ref.fixed_bytes

    @property
    def weight_bytes(self) -> int:
        return self.account_ref.weight_bytes

    def total_bytes(self, batch_size: int = 1, image_size: int | None = None, exact: bool = True) -> int:
        """``M_fixed + k · M_act(s)`` in bytes."""
        at_least("batch_size", batch_size, 1)
        s = self.ref_image if image_size is None else image_size
        return self.fixed_bytes + batch_size * self.act_bytes(s, exact=exact)

    def fits(self, budget_bytes: int, batch_size: int = 1, image_size: int | None = None) -> bool:
        """Does the full (no-checkpointing) footprint fit ``budget_bytes``?"""
        return self.total_bytes(batch_size, image_size) <= budget_bytes

    def max_batch(self, budget_bytes: int, image_size: int | None = None) -> int:
        """Largest batch size fitting the budget without checkpointing.

        Raises :class:`~repro.errors.MemoryBudgetError` when even batch
        size 1 does not fit.
        """
        s = self.ref_image if image_size is None else image_size
        act = self.act_bytes(s)
        spare = budget_bytes - self.fixed_bytes
        if act <= 0:
            return 1 if spare >= 0 else 0
        k = spare // act
        if k < 1:
            raise MemoryBudgetError(
                f"{self.name}: batch 1 at image {s} needs "
                f"{self.fixed_bytes + act} B > budget {budget_bytes} B"
            )
        return int(k)


def memory_model_for(
    builder: Callable[[int], Graph],
    ref_image: int = 224,
    policy: AccountingPolicy = TRAINING_POLICY,
    name: str | None = None,
) -> MemoryModel:
    """Build a :class:`MemoryModel` from an ``image_size -> Graph`` builder."""
    graph = builder(ref_image)
    acct = account(graph, policy)
    return MemoryModel(
        name=name or graph.name,
        ref_image=ref_image,
        account_ref=acct,
        builder=builder,
        policy=policy,
    )
