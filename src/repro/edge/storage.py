"""On-node dataset storage sizing and write costs (paper Section III).

The paper argues harvested training images need not be stored at high
resolution: at 224×224 a JPEG-compressed frame is ≲ 10 kB, so even a
large harvested dataset fits the node's SD card.  (The paper says 100,000
such images need "about 10 GB"; at 10 kB each the exact figure is ~1 GB —
``bench_student_teacher`` prints both, and EXPERIMENTS.md notes the
discrepancy.)

:class:`StorageProfile` prices the *write path* of that same SD/flash
medium — a fixed per-operation latency plus a bandwidth term.  It is
how :mod:`repro.resilience` turns a durable training snapshot's byte
size into the Young/Daly snapshot cost δ.

:class:`CompressionModel` prices the *codec path* in the same currency:
a size ratio, compress/decompress bandwidths and a declared gradient
fidelity loss.  It is how the compression-aware planner
(:mod:`repro.checkpointing.joint`) and the compressed execution backend
(:mod:`repro.engine.compressed`) trade smaller checkpoints against
codec seconds — BitTrain's sparse-bitmap encoding and a low-precision
cast are shipped as presets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MemoryBudgetError
from ..units import KB, MB

__all__ = [
    "ImageStore",
    "PAPER_IMAGE_KB",
    "PAPER_IMAGE_COUNT",
    "StorageProfile",
    "SD_CARD",
    "EMMC",
    "CompressionModel",
    "LOSSLESS",
    "BITTRAIN_SPARSE",
    "FP16_CAST",
    "compression_models",
]

#: The paper's per-image size estimate at 224x224.
PAPER_IMAGE_KB: float = 10.0
#: The paper's example harvested-dataset size.
PAPER_IMAGE_COUNT: int = 100_000


@dataclass(frozen=True)
class ImageStore:
    """A bounded image store on flash/SD storage."""

    capacity_bytes: int
    image_bytes: int = int(PAPER_IMAGE_KB * KB)

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if self.image_bytes <= 0:
            raise ValueError("image size must be positive")

    def dataset_bytes(self, n_images: int) -> int:
        """Bytes needed for ``n_images``."""
        if n_images < 0:
            raise ValueError("image count must be non-negative")
        return n_images * self.image_bytes

    @property
    def max_images(self) -> int:
        """Largest dataset the store can hold."""
        return self.capacity_bytes // self.image_bytes

    def fits(self, n_images: int) -> bool:
        return self.dataset_bytes(n_images) <= self.capacity_bytes

    def require(self, n_images: int) -> None:
        """Raise :class:`~repro.errors.MemoryBudgetError` if it won't fit."""
        need = self.dataset_bytes(n_images)
        if need > self.capacity_bytes:
            raise MemoryBudgetError(
                f"{n_images} images need {need} B > capacity {self.capacity_bytes} B"
            )


@dataclass(frozen=True)
class StorageProfile:
    """Read/write cost model of on-node flash storage.

    ``write_seconds`` is the Young/Daly δ for a payload of that size:
    a fixed per-operation latency (filesystem metadata, erase blocks)
    plus the bandwidth-limited transfer.  The read path (used when the
    tiered execution engine restores a checkpoint from this medium)
    defaults to mirroring the write path unless given explicitly.
    """

    name: str = "sd-card"
    write_bytes_per_s: float = 10.0 * MB
    write_latency_s: float = 0.01
    #: read bandwidth; ``None`` mirrors the write bandwidth
    read_bytes_per_s: float | None = None
    #: per-operation read latency; ``None`` mirrors the write latency
    read_latency_s: float | None = None

    def __post_init__(self) -> None:
        # Written as ``not (x > 0)`` so NaN is rejected too; inf is legal.
        if not (self.write_bytes_per_s > 0):
            raise ValueError("write bandwidth must be positive")
        if not (self.write_latency_s >= 0):
            raise ValueError("write latency must be non-negative")
        if self.read_bytes_per_s is not None and not (self.read_bytes_per_s > 0):
            raise ValueError("read bandwidth must be positive")
        if self.read_latency_s is not None and not (self.read_latency_s >= 0):
            raise ValueError("read latency must be non-negative")

    def write_seconds(self, n_bytes: int) -> float:
        """Seconds to durably write ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return self.write_latency_s + n_bytes / self.write_bytes_per_s

    def read_seconds(self, n_bytes: int) -> float:
        """Seconds to read ``n_bytes`` back."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        latency = self.read_latency_s if self.read_latency_s is not None else self.write_latency_s
        bw = self.read_bytes_per_s if self.read_bytes_per_s is not None else self.write_bytes_per_s
        return latency + n_bytes / bw


#: A commodity class-10 SD card — the Array-of-Things storage medium.
SD_CARD = StorageProfile()
#: On-board eMMC (e.g. the ODROID XU4 option): ~4x the write bandwidth.
EMMC = StorageProfile(name="emmc", write_bytes_per_s=40.0 * MB, write_latency_s=0.002)


@dataclass(frozen=True)
class CompressionModel:
    """Analytic codec for checkpointed activations.

    ``ratio`` scales stored bytes (``0 < ratio <= 1``); the codec paths
    are priced like a :class:`StorageProfile` — per-call latency plus a
    bandwidth term over the *raw* payload (a codec touches every input
    byte regardless of how small its output is).  ``fidelity_loss`` is
    the declared relative gradient error bound a lossy codec may
    introduce per restored activation; ``0.0`` means bit-exact.  The
    defaults are the identity codec: ratio 1, free, lossless — under
    which every compressed plan collapses to its uncompressed family.
    """

    name: str = "identity"
    ratio: float = 1.0
    #: codec throughput over raw bytes; ``None`` means free (no CPU cost)
    compress_bytes_per_s: float | None = None
    #: decode throughput; ``None`` mirrors the compress path
    decompress_bytes_per_s: float | None = None
    compress_latency_s: float = 0.0
    decompress_latency_s: float = 0.0
    #: declared relative gradient error bound (0 = lossless)
    fidelity_loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("compression ratio must be in (0, 1]")
        # Written as ``not (x > 0)`` so NaN is rejected too; inf is legal.
        if self.compress_bytes_per_s is not None and not (self.compress_bytes_per_s > 0):
            raise ValueError("compress bandwidth must be positive")
        if self.decompress_bytes_per_s is not None and not (self.decompress_bytes_per_s > 0):
            raise ValueError("decompress bandwidth must be positive")
        if not (self.compress_latency_s >= 0 and self.decompress_latency_s >= 0):
            raise ValueError("codec latency must be non-negative")
        if not (self.fidelity_loss >= 0):
            raise ValueError("fidelity loss must be non-negative")

    @property
    def lossless(self) -> bool:
        return self.fidelity_loss == 0.0

    def compressed_bytes(self, n_bytes: int) -> int:
        """Stored size of an ``n_bytes`` activation (never below 1 byte)."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if n_bytes == 0:
            return 0
        return max(1, int(n_bytes * self.ratio))

    def compress_seconds(self, n_bytes: int) -> float:
        """Codec seconds to encode ``n_bytes`` of raw activation."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if self.compress_bytes_per_s is None:
            return 0.0
        return self.compress_latency_s + n_bytes / self.compress_bytes_per_s

    def decompress_seconds(self, n_bytes: int) -> float:
        """Codec seconds to decode back to ``n_bytes`` of raw activation."""
        if n_bytes < 0:
            raise ValueError("byte count must be non-negative")
        bw = (
            self.decompress_bytes_per_s
            if self.decompress_bytes_per_s is not None
            else self.compress_bytes_per_s
        )
        if bw is None:
            return 0.0
        return self.decompress_latency_s + n_bytes / bw


#: The identity codec: ratio 1, zero cost, bit-exact.  Compressed plans
#: under this model collapse exactly to their uncompressed families.
LOSSLESS = CompressionModel()

#: BitTrain-style sparse bitmap encoding of post-ReLU activations: the
#: bitmap plus the ~25% nonzero values land near 0.28 of the raw size,
#: lossless, at memcpy-class codec bandwidth on a Cortex-A15.
BITTRAIN_SPARSE = CompressionModel(
    name="bittrain-sparse",
    ratio=0.28,
    compress_bytes_per_s=400.0 * MB,
    decompress_bytes_per_s=600.0 * MB,
    compress_latency_s=0.0002,
    decompress_latency_s=0.0002,
)

#: Low-precision ablation lever: cast fp32 activations to fp16 on store.
#: Halves bytes at near-memcpy speed but is lossy — the declared bound
#: is the relative gradient error a half-precision activation admits.
FP16_CAST = CompressionModel(
    name="fp16-cast",
    ratio=0.5,
    compress_bytes_per_s=1.6e9,
    decompress_bytes_per_s=1.6e9,
    fidelity_loss=1e-3,
)


def compression_models() -> dict[str, CompressionModel]:
    """The named codec presets, keyed as the CLI spells them."""
    return {
        "lossless": LOSSLESS,
        "bittrain": BITTRAIN_SPARSE,
        "fp16": FP16_CAST,
    }
