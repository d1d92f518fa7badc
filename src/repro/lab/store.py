"""Content-addressed artifact store with atomic writes.

Layout under one output directory (``repro-edge all --outdir``)::

    <root>/
      <stem>.<ext>            rendered artifacts (txt/csv/json)
      cache/<key>.json        computed payloads, keyed by unit_key()
      manifests/<stem>.json   provenance manifest per artifact stem

Payload files carry an integrity hash of their canonical JSON; a file
that is unreadable, malformed or fails that check raises the typed
:class:`~repro.errors.ArtifactError` so callers can distinguish
*corruption* (recompute) from *absence* (compute).  All writes go
through a uniquely named temp file + ``os.replace`` so a crash can never
leave a half-written artifact behind, and concurrent writers of one file
never share a temp file: the last ``os.replace`` wins.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterator

from ..atomic import atomic_write_text
from ..errors import ArtifactError
from .spec import canonical_payload, dump_json, load_json

__all__ = ["ArtifactStore", "PAYLOAD_VERSION"]

PAYLOAD_VERSION = 1


class ArtifactStore:
    """Payloads, rendered artifacts and manifests under one root."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- computed payloads (the cache) ---------------------------------

    def cache_path(self, key: str) -> Path:
        return self.root / "cache" / f"{key}.json"

    def has_payload(self, key: str) -> bool:
        return self.cache_path(key).is_file()

    def save_payload(self, key: str, spec: str, params: Any, payload: Any) -> Path:
        canon = canonical_payload(payload)
        doc = {
            "version": PAYLOAD_VERSION,
            "key": key,
            "spec": spec,
            "params": params,
            "sha256": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        path = self.cache_path(key)
        atomic_write_text(path, dump_json(doc, indent=1))
        return path

    def load_payload(self, key: str) -> Any:
        """Return the cached payload for ``key`` or raise ArtifactError."""
        path = self.cache_path(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            raise ArtifactError(f"no cached artifact for key {key[:12]}...") from None
        except OSError as exc:
            raise ArtifactError(f"unreadable artifact {path}: {exc}") from exc
        try:
            doc = load_json(raw)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"corrupted artifact {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ArtifactError(f"corrupted artifact {path}: not an object")
        for field in ("version", "key", "sha256", "payload"):
            if field not in doc:
                raise ArtifactError(f"artifact {path} is missing field {field!r}")
        if doc["version"] != PAYLOAD_VERSION:
            raise ArtifactError(
                f"artifact {path} has version {doc['version']}, "
                f"expected {PAYLOAD_VERSION}"
            )
        if doc["key"] != key:
            raise ArtifactError(f"artifact {path} claims key {doc['key'][:12]}...")
        payload = doc["payload"]
        digest = hashlib.sha256(
            canonical_payload(payload).encode("utf-8")
        ).hexdigest()
        if digest != doc["sha256"]:
            raise ArtifactError(f"artifact {path} failed its integrity check")
        return payload

    def drop_payload(self, key: str) -> None:
        try:
            self.cache_path(key).unlink()
        except FileNotFoundError:
            pass

    # -- rendered artifacts --------------------------------------------

    def artifact_path(self, filename: str) -> Path:
        return self.root / filename

    def write_artifact(self, filename: str, text: str) -> tuple[Path, bool]:
        """Write a rendered artifact; returns (path, changed).

        Skips the write when the on-disk bytes already match, so warm
        runs leave mtimes untouched and stay near-free.
        """
        path = self.artifact_path(filename)
        try:
            if path.read_text() == text:
                return path, False
        except OSError:
            pass
        atomic_write_text(path, text)
        return path, True

    @staticmethod
    def file_sha256(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    # -- provenance manifests ------------------------------------------

    def manifest_path(self, stem: str) -> Path:
        return self.root / "manifests" / f"{stem}.json"

    def write_manifest(self, stem: str, doc: dict) -> Path:
        path = self.manifest_path(stem)
        atomic_write_text(path, dump_json(doc, indent=1))
        return path

    def read_manifest(self, stem: str) -> dict | None:
        path = self.manifest_path(stem)
        try:
            doc = load_json(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def manifests(self) -> Iterator[tuple[str, dict | None]]:
        """Yield (stem, doc) for every manifest file under the root."""
        directory = self.root / "manifests"
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.json")):
            yield path.stem, self.read_manifest(path.stem)
