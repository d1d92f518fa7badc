"""PyTorch-style ``checkpoint_sequential`` (uniform segmentation).

The network is split into ``s`` segments of ``⌊l/s⌋`` steps each, the last
segment absorbing the remainder.  During the forward pass only segment
*inputs* are checkpointed, except the last segment whose activations are
all kept; during backward, each earlier segment is recomputed in full
before being reversed.  The paper's Section V formula for the activation
slots this strategy holds at peak is

    Mem(l, s) = (s − 1) + (l − ⌊l/s⌋·(s − 1))

— the ``s−1`` stored segment inputs (the first segment's input is the
batch itself) plus the fully-stored last segment — minimized near
``s = √l`` with lower bound ``2√l``.  Revolve reaches logarithmic memory
at bounded overhead instead: the paper's Section VI comparison, measured
by ``repro-edge ablation`` (asserted in ``tests/test_experiments_ablation.py``).

Two recompute counts are provided:

* :func:`uniform_extra_forwards` — PyTorch-faithful: backward re-runs the
  *whole* segment forward, so ``⌊l/s⌋·(s−1)`` extra executions;
* :func:`uniform_extra_forwards_fused` — fused-youturn convention used by
  our executor (each adjoint replays its own step internally), i.e.
  ``(⌊l/s⌋−1)·(s−1)`` pure advances; this is what
  :func:`uniform_schedule`'s simulation measures.
"""

from __future__ import annotations

import math

from ..errors import PlanningError, ScheduleError
from .actions import Action, adjoint, advance, free, restore, snapshot
from .schedule import Schedule

__all__ = [
    "segment_lengths",
    "uniform_memory_slots",
    "uniform_extra_forwards",
    "uniform_extra_forwards_fused",
    "uniform_lower_bound",
    "best_segments",
    "uniform_schedule",
]


def segment_lengths(l: int, s: int) -> list[int]:
    """Per-segment step counts: ``s-1`` segments of ``⌊l/s⌋`` + remainder.

    Mirrors ``torch.utils.checkpoint.checkpoint_sequential``: all segments
    equal except the last, which takes what is left.
    """
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    if not 1 <= s <= l:
        raise ScheduleError(f"segments must be in [1, {l}], got {s}")
    size = l // s
    lengths = [size] * (s - 1)
    lengths.append(l - size * (s - 1))
    return lengths


def uniform_memory_slots(l: int, s: int) -> int:
    """The paper's Section V activation-slot count for ``s`` segments."""
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    if not 1 <= s <= l:
        raise ScheduleError(f"segments must be in [1, {l}], got {s}")
    return (s - 1) + (l - (l // s) * (s - 1))


def uniform_extra_forwards(l: int, s: int) -> int:
    """PyTorch-faithful recompute count: whole segments re-run."""
    return (l // s) * (s - 1)


def uniform_extra_forwards_fused(l: int, s: int) -> int:
    """Fused-youturn recompute count (matches the executable schedule)."""
    size = l // s
    return max(0, size - 1) * (s - 1)


def uniform_lower_bound(l: int) -> float:
    """The paper's ``2·sqrt(l)`` lower bound on ``min_s Mem(l, s)``."""
    return 2.0 * math.sqrt(l)


def best_segments(l: int, slot_budget: int | None = None) -> int:
    """Segment count minimizing slots, optionally under a budget.

    With no budget, returns the ``s`` minimizing ``Mem(l, s)`` (ties to
    the smaller ``s``, which recomputes less).  With a budget, returns the
    smallest ``s`` with ``Mem(l, s) <= slot_budget``; raises
    :class:`~repro.errors.PlanningError` when no segmentation fits.
    """
    candidates = range(1, l + 1)
    if slot_budget is None:
        return min(candidates, key=lambda s: (uniform_memory_slots(l, s), s))
    for s in candidates:
        if uniform_memory_slots(l, s) <= slot_budget:
            return s
    raise PlanningError(
        f"no uniform segmentation of l={l} fits {slot_budget} slots "
        f"(minimum is {min(uniform_memory_slots(l, s) for s in candidates)})"
    )


def uniform_schedule(l: int, s: int) -> Schedule:
    """Executable ``checkpoint_sequential`` schedule with ``s`` segments.

    Slot layout: slots ``0..s-1`` hold segment inputs (slot ``i`` holds
    ``x_{start_i}``, slot 0 the chain input); slots ``s..`` hold the
    active segment's interior activations, reused across segments.  Peak
    occupancy is ``s + L_last - 1`` slots — identical to the paper's
    ``(s−1) + L_last`` once the never-stored ``x_l`` and the stored
    ``x_0`` cancel.
    """
    lengths = segment_lengths(l, s)
    starts = [0]
    for ln in lengths[:-1]:
        starts.append(starts[-1] + ln)

    interior_base = s
    max_interior = max(max(lengths) - 1, 0)
    actions: list[Action] = []

    # Forward sweep: checkpoint each segment input; store the last
    # segment's interior.  The final activation x_l is never computed by
    # an advance — the adjoint of step l replays it (fused youturn).
    for i, start in enumerate(starts):
        actions.append(snapshot(i))
        end = start + lengths[i]
        if i < s - 1:
            actions.append(advance(end))
        else:
            for j, idx in enumerate(range(start + 1, end)):
                actions.append(advance(idx))
                actions.append(snapshot(interior_base + j))

    # Backward sweep, segment by segment.
    for i in range(s - 1, -1, -1):
        start = starts[i]
        end = start + lengths[i]
        if i < s - 1:
            # Recompute this segment's interior from its input checkpoint.
            actions.append(restore(i))
            for j, idx in enumerate(range(start + 1, end)):
                actions.append(advance(idx))
                actions.append(snapshot(interior_base + j))
        for b in range(end, start, -1):
            src = b - 1
            if src == start:
                actions.append(restore(i))
            else:
                actions.append(restore(interior_base + (src - start - 1)))
            actions.append(adjoint(b))
        for j in range(lengths[i] - 1):
            actions.append(free(interior_base + j))
        actions.append(free(i))

    return Schedule(
        strategy=f"uniform(s={s})",
        length=l,
        slots=s + max_interior,
        actions=tuple(actions),
    )
