"""The action IR for checkpoint schedules.

A schedule is a flat list of actions driving an abstract reversal machine
(and, in :mod:`repro.autodiff.executor`, a real NumPy training run):

``ADVANCE(to)``
    Run forward steps from the cursor's activation index up to ``to``,
    discarding intermediates (the cursor ends holding ``x_to``).
``SNAPSHOT(slot)``
    Copy the cursor's activation into checkpoint slot ``slot``.
``RESTORE(slot)``
    Load the cursor from slot ``slot`` (the slot keeps its contents).
``FREE(slot)``
    Release a slot (memory-accounting hygiene; Revolve also overwrites).
``ADJOINT(step)``
    Perform the combined forward+backward of ``step`` ("youturn"):
    requires the cursor at ``x_{step-1}`` and the pending backward counter
    equal to ``step``; internally replays ``F_step`` then applies
    ``B_step``.

Conventions follow Griewank & Walther's Revolve: the adjoint always
replays its own step's forward, so a schedule's *pure* forward count (sum
of ADVANCE lengths) is the classic Revolve cost ``P(l, c)``.

Tiers
-----

Slot ids encode *where a checkpoint lives*.  The id space is partitioned
into bands of :data:`TIER_SLOT_STRIDE` consecutive ids: tier ``t`` owns
``[t·stride, (t+1)·stride)``, so tier 0 (:data:`TIER_RAM`) is plain RAM
slots ``0, 1, 2, ...`` and tier 1 (:data:`TIER_DISK`) starts at
``1_000_000`` (:data:`DISK_SLOT_BASE`) — one alphabet shared by the
schedule VM (:mod:`repro.engine.vm`), the tiered backend
(:mod:`repro.engine.tiered`) and the flat program IR
(:mod:`repro.engine.program`).  :func:`tier_of_slot` and
:func:`tier_slot` convert between the flat id and the (tier, local)
pair; the encoding stays well inside int32 so compiled programs
round-trip paged schedules exactly.

Compression
-----------

Orthogonally to the tier bands, a slot id at or above
:data:`COMPRESS_SLOT_BASE` marks the checkpoint as *stored compressed*:
``compressed_slot(s) == COMPRESS_SLOT_BASE + s`` flags any storage slot
``s`` (RAM or disk band alike), :func:`storage_slot` strips the flag and
:func:`is_compressed_slot` tests it.  The tier helpers strip the flag
first, so a compressed disk slot still routes to the disk ledger — *how*
an activation is stored (raw vs through a
:class:`~repro.edge.storage.CompressionModel`) is part of the plan, not
a backend implementation detail.  ``COMPRESS_SLOT_BASE + tier_slot(1,
local)`` tops out near ``1.01e8``, still comfortably inside int32, so
compressed schedules compile, cache and decompile exactly like plain
ones with no ``PROGRAM_VERSION`` bump.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ScheduleError

__all__ = [
    "ActionKind",
    "Action",
    "advance",
    "snapshot",
    "restore",
    "free",
    "adjoint",
    "TIER_SLOT_STRIDE",
    "TIER_RAM",
    "TIER_DISK",
    "DISK_SLOT_BASE",
    "tier_of_slot",
    "tier_slot",
    "COMPRESS_SLOT_BASE",
    "is_compressed_slot",
    "compressed_slot",
    "storage_slot",
]

#: Width of each tier's slot-id band; tier ``t`` owns ``[t·stride, (t+1)·stride)``.
TIER_SLOT_STRIDE = 1_000_000

#: Slot ids at or above this are stored compressed; subtracting the base
#: yields the underlying tier-banded storage slot.
COMPRESS_SLOT_BASE = 100_000_000

#: Tier index of ordinary in-memory checkpoint slots.
TIER_RAM = 0

#: Tier index of the (flash/SD/eMMC) paging tier.
TIER_DISK = 1


def is_compressed_slot(slot: int) -> bool:
    """Whether a flat slot id carries the compressed-storage flag."""
    if slot < 0:
        raise ScheduleError(f"slot id must be >= 0, got {slot}")
    return slot >= COMPRESS_SLOT_BASE


def compressed_slot(slot: int) -> int:
    """Flag a tier-banded storage slot id as stored compressed."""
    if not 0 <= slot < COMPRESS_SLOT_BASE:
        raise ScheduleError(
            f"storage slot must be in [0, {COMPRESS_SLOT_BASE}), got {slot}"
        )
    return COMPRESS_SLOT_BASE + slot


def storage_slot(slot: int) -> int:
    """The underlying tier-banded slot id, compression flag stripped."""
    if slot < 0:
        raise ScheduleError(f"slot id must be >= 0, got {slot}")
    return slot - COMPRESS_SLOT_BASE if slot >= COMPRESS_SLOT_BASE else slot


def tier_of_slot(slot: int) -> int:
    """Tier index encoded in a flat slot id (compression flag ignored)."""
    return storage_slot(slot) // TIER_SLOT_STRIDE


def tier_slot(tier: int, local: int) -> int:
    """Flat slot id of the ``local``-th slot on ``tier``."""
    if tier < 0:
        raise ScheduleError(f"tier must be >= 0, got {tier}")
    if not 0 <= local < TIER_SLOT_STRIDE:
        raise ScheduleError(
            f"local slot must be in [0, {TIER_SLOT_STRIDE}), got {local}"
        )
    return tier * TIER_SLOT_STRIDE + local


#: First slot id of the disk tier — where paged schedules' disk band starts.
DISK_SLOT_BASE = tier_slot(TIER_DISK, 0)


class ActionKind(enum.Enum):
    """Discriminator for :class:`Action`."""

    ADVANCE = "advance"
    SNAPSHOT = "snapshot"
    RESTORE = "restore"
    FREE = "free"
    ADJOINT = "adjoint"


@dataclass(frozen=True)
class Action:
    """One schedule instruction.  ``arg`` is the target index or slot id."""

    kind: ActionKind
    arg: int

    def __post_init__(self) -> None:
        if self.arg < 0:
            raise ScheduleError(f"{self.kind.value} argument must be >= 0, got {self.arg}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}({self.arg})"


def advance(to: int) -> Action:
    """Forward the cursor to activation index ``to``."""
    return Action(ActionKind.ADVANCE, to)


def snapshot(slot: int) -> Action:
    """Store the cursor's activation into ``slot``."""
    return Action(ActionKind.SNAPSHOT, slot)


def restore(slot: int) -> Action:
    """Load the cursor from ``slot``."""
    return Action(ActionKind.RESTORE, slot)


def free(slot: int) -> Action:
    """Release ``slot``."""
    return Action(ActionKind.FREE, slot)


def adjoint(step: int) -> Action:
    """Forward+backward of ``step`` (requires cursor at ``x_{step-1}``)."""
    return Action(ActionKind.ADJOINT, step)
