"""Atomic text writes, shared by the lab store, runlogs and snapshots.

A leaf module: it imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

__all__ = ["atomic_write_text"]


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a uniquely named temp file + ``os.replace``, so readers see
    the old file or the new one and concurrent writers never share a temp
    file; the temp file is removed if the write fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
