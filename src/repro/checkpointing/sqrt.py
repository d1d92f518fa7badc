"""Chen et al.'s √l checkpointing heuristic ("sublinear memory cost").

A special case of uniform segmentation with ``s ≈ √l`` segments: memory
``O(√l)`` at one extra forward per step (ρ ≈ 1.33 with backward = 2×
forward, ρ = 1.5 with backward = forward).  Included as the standard
middle ground between PyTorch's arbitrary-``s`` uniform strategy and
Revolve's optimal binomial schedule.
"""

from __future__ import annotations

import math

from ..errors import at_least
from .schedule import Schedule
from .uniform import uniform_memory_slots, uniform_schedule

__all__ = ["sqrt_segments", "sqrt_memory_slots", "sqrt_schedule"]


def sqrt_segments(l: int) -> int:
    """Chen's segment count: ``round(√l)``, clamped to [1, l]."""
    at_least("chain length", l, 1)
    return max(1, min(l, round(math.sqrt(l))))


def sqrt_memory_slots(l: int) -> int:
    """Activation slots used by the √l strategy (Section V formula)."""
    return uniform_memory_slots(l, sqrt_segments(l))


def sqrt_schedule(l: int) -> Schedule:
    """Executable √l schedule (uniform schedule at ``s = √l``)."""
    sch = uniform_schedule(l, sqrt_segments(l))
    return Schedule(
        strategy="sqrt",
        length=sch.length,
        slots=sch.slots,
        actions=sch.actions,
    )
