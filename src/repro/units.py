"""Byte-size constants, dtype sizing and humanized formatting.

All memory accounting in :mod:`repro` is done in plain integer bytes so that
results are exact and reproducible; this module centralizes the conversion
conventions.  The paper reports MB/GB with the binary convention
(1 MB = 2**20 bytes, 1 GB = 2**30 bytes) — Table III's GB column equals
Table I's MB column divided by 1024 — so we follow the same convention.
"""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "FLOAT32_BYTES",
    "FLOAT16_BYTES",
    "FLOAT64_BYTES",
    "DTYPE_BYTES",
    "humanize_bytes",
]

#: 1 KiB in bytes (binary convention, matching the paper's tables).
KB: int = 1024
#: 1 MiB in bytes.
MB: int = 1024 * 1024
#: 1 GiB in bytes.
GB: int = 1024 * 1024 * 1024

FLOAT16_BYTES: int = 2
FLOAT32_BYTES: int = 4
FLOAT64_BYTES: int = 8

#: Mapping of supported dtype names to their per-element byte width.
DTYPE_BYTES: dict[str, int] = {
    "float16": FLOAT16_BYTES,
    "float32": FLOAT32_BYTES,
    "float64": FLOAT64_BYTES,
    "int8": 1,
    "uint8": 1,
    "int32": 4,
    "int64": 8,
}


def humanize_bytes(nbytes: float, precision: int = 2) -> str:
    """Render a byte count with the largest sensible binary unit.

    >>> humanize_bytes(2 * 1024 * 1024 * 1024)
    '2.00 GB'
    >>> humanize_bytes(512)
    '512 B'
    """
    sign = "-" if nbytes < 0 else ""
    n = abs(float(nbytes))
    for unit, width in (("GB", GB), ("MB", MB), ("KB", KB)):
        if n >= width:
            return f"{sign}{n / width:.{precision}f} {unit}"
    return f"{sign}{n:.0f} B"
