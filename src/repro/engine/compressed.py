"""Compression-aware tiered backend: codec-priced checkpoint storage.

A :class:`~repro.engine.tiered.TieredBackend` armed with a
:class:`~repro.edge.storage.CompressionModel`: any slot in the
compressed band of the shared action alphabet
(:func:`~repro.checkpointing.actions.is_compressed_slot`) stores
``codec.compressed_bytes(raw)`` in its tier's ledger instead of the raw
activation size, and every compressed SNAPSHOT/RESTORE pays the codec's
encode/decode seconds on top of the tier's storage transfer.  Slots
outside the band behave exactly like the plain tiered backend — the
compression flag travels in the *plan*, so one backend executes mixed
raw/compressed schedules without any side table.

All of the accounting lives in :class:`~repro.engine.tiered.TieredBackend`
(priced by :func:`~repro.edge.storage.paged_transfer`); this class only
sets the codec.  With the identity codec (ratio 1, zero cost) every
measurement collapses to the codec-less backend's, which is what makes
the lossless-collapse property testable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..checkpointing.chainspec import ChainSpec
from .tiered import TieredBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile

__all__ = ["CompressedBackend"]


class CompressedBackend(TieredBackend):
    """TieredBackend plus a codec for compressed-band slots."""

    def __init__(
        self,
        spec: ChainSpec,
        codec: "CompressionModel",
        *,
        memory: "StorageProfile | None" = None,
        disk: "StorageProfile | None" = None,
    ) -> None:
        super().__init__(spec, memory=memory, disk=disk)
        self.codec = codec
