"""Two-tier (memory + disk) backend with per-tier transfer costs.

Extends :class:`~repro.engine.sim.SimBackend` with a storage ledger per
tier: slot ids are routed by the shared tier-aware action alphabet
(:func:`~repro.checkpointing.actions.tier_of_slot` — ids outside tier
0's band, i.e. at or above ``DISK_SLOT_BASE``, live on the disk tier,
the rest in RAM).  Each tier may carry a
:class:`~repro.edge.storage.StorageProfile` pricing its read/write path
in seconds; a tier without a profile moves checkpoints for free (pure
counting: ``run.tier("disk").writes`` / ``.reads`` are then the plain
I/O counts a unit-cost plan prices).
This is what lets a ``disk_revolve`` schedule *execute* — not just be
planned — with measured SD-card/eMMC transfer time in the resulting
:class:`~repro.engine.stats.RunStats`.

When :attr:`TieredBackend.codec` is set (by
:class:`~repro.engine.compressed.CompressedBackend`), compressed-band
slots are stored through it and a codec ledger is kept.  Every transfer
is priced by one :func:`~repro.edge.storage.paged_transfer` call, the
same call the joint planner's objectives price it with.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from ..checkpointing.actions import TIER_RAM, is_compressed_slot, tier_of_slot
from ..checkpointing.chainspec import ChainSpec
from ..edge.storage import paged_transfer
from .sim import SimBackend
from .stats import CompressionStats, TierStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile

__all__ = ["TieredBackend"]


class _TierLedger:
    """Mutable per-tier accounting; frozen into a TierStats at the end."""

    def __init__(self, name: str, profile: "StorageProfile | None") -> None:
        self.name = name
        self.profile = profile
        #: slot id -> bytes the tier actually holds for it (compressed
        #: slots hold fewer bytes than the activation's raw size)
        self.slots: dict[int, int] = {}
        self.writes = 0
        self.reads = 0
        self.write_seconds = 0.0
        self.read_seconds = 0.0
        self.bytes_written = 0
        self.bytes_read = 0
        self.peak_slots = 0
        self.peak_bytes = 0

    def charge(self) -> None:
        if len(self.slots) > self.peak_slots:
            self.peak_slots = len(self.slots)
        held = sum(self.slots.values())
        if held > self.peak_bytes:
            self.peak_bytes = held

    def stats(self) -> TierStats:
        return TierStats(**{f.name: getattr(self, f.name) for f in fields(TierStats)})


class TieredBackend(SimBackend):
    """SimBackend plus a RAM/disk split with priced transfers."""

    #: codec for compressed-band slots; ``None`` stores every slot raw
    codec: "CompressionModel | None" = None

    def __init__(
        self,
        spec: ChainSpec,
        *,
        memory: "StorageProfile | None" = None,
        disk: "StorageProfile | None" = None,
    ) -> None:
        super().__init__(spec)
        self._memory_profile = memory
        self._disk_profile = disk
        self._reset()

    def begin(self) -> None:
        self._reset()  # before SimBackend's initial charge reads slot_bytes
        super().begin()

    def _reset(self) -> None:
        self._mem = _TierLedger("memory", self._memory_profile)
        self._disk = _TierLedger("disk", self._disk_profile)
        #: the CompressionStats counters, by field name
        self._zip = dict(
            compress_calls=0, decompress_calls=0,
            compress_seconds=0.0, decompress_seconds=0.0, bytes_saved=0,
        )

    def _tier(self, slot: int) -> _TierLedger:
        return self._mem if tier_of_slot(slot) == TIER_RAM else self._disk

    def _codec(self, slot: int) -> "CompressionModel | None":
        codec = self.codec
        return codec if codec is not None and is_compressed_slot(slot) else None

    @property
    def slot_bytes(self) -> int:
        return sum(self._mem.slots.values()) + sum(self._disk.slots.values())

    def snapshot(self, slot: int, index: int) -> float:
        tier = self._tier(slot)
        codec = self._codec(slot)
        raw = self.spec.act_bytes[index]
        stored, storage_s, codec_s = paged_transfer(raw, tier.profile, codec, write=True)
        tier.slots[slot] = stored  # before SimBackend charges its peak from slot_bytes
        super().snapshot(slot, index)
        tier.writes += 1
        tier.bytes_written += stored
        tier.write_seconds += storage_s
        tier.charge()
        if codec is not None:
            z = self._zip
            z["compress_calls"] += 1
            z["compress_seconds"] += codec_s
            z["bytes_saved"] += raw - stored
        return storage_s + codec_s

    def restore(self, slot: int, index: int) -> float:
        super().restore(slot, index)
        tier = self._tier(slot)
        codec = self._codec(slot)
        stored, storage_s, codec_s = paged_transfer(
            self.spec.act_bytes[index], tier.profile, codec, write=False
        )
        tier.reads += 1
        tier.bytes_read += stored
        tier.read_seconds += storage_s
        if codec is not None:
            self._zip["decompress_calls"] += 1
            self._zip["decompress_seconds"] += codec_s
        return storage_s + codec_s

    def free(self, slot: int, index: int) -> float:
        tier = self._tier(slot)
        del tier.slots[slot]
        super().free(slot, index)
        tier.charge()
        return 0.0

    def tier_stats(self) -> tuple[TierStats, ...]:
        return (self._mem.stats(), self._disk.stats())

    def compression_stats(self) -> CompressionStats | None:
        codec = self.codec
        if codec is None:
            return None
        fidelity = codec.fidelity_loss if self._zip["compress_calls"] else 0.0
        return CompressionStats(
            codec=codec.name, ratio=codec.ratio, fidelity_loss=fidelity, **self._zip
        )
