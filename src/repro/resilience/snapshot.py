"""Durable training snapshots: full state, versioned JSON, policies.

Revolve's checkpoints are *memory slots* traded against recompute;
the snapshots here are the other meaning of the word — durable images
of the whole training state written to flash so a crash loses minutes,
not days.  One snapshot captures everything a bit-identical resume
needs:

* every layer parameter (raw little-endian bytes, exact);
* the optimizer's internal state (momentum velocities);
* the RNG cursor — because :meth:`Trainer.fit
  <repro.autodiff.trainer.Trainer.fit>` derives epoch ``k``'s batch
  order purely from ``(shuffle_seed, k)``, the cursor is just the
  :class:`~repro.autodiff.trainer.FitCursor` (epoch, batch, step,
  partial-epoch accumulators), no generator internals;
* the completed epoch history.

Serialization follows the :mod:`repro.checkpointing.serialize`
conventions: a single versioned JSON object, strict validation on load,
typed :class:`~repro.errors.SnapshotError` for anything malformed —
plus a CRC-32 over the array payloads so corrupted or truncated files
fail loudly instead of resuming garbage.

:class:`FixedIntervalPolicy` decides when to pay the write cost δ
(every N steps); :func:`young_daly_interval` is the classic optimum
``τ* = √(2·δ·MTBF)`` that :mod:`repro.resilience.analysis` sweeps
around.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from ..atomic import atomic_write_text
from ..autodiff.trainer import EpochRecord, FitCursor, Trainer
from ..errors import ConfigError, SnapshotError, at_least
from ..obs import get_metrics, get_tracer

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "TrainingSnapshot",
    "capture_snapshot",
    "restore_snapshot",
    "snapshot_to_json",
    "snapshot_from_json",
    "write_snapshot",
    "read_snapshot",
    "young_daly_interval",
    "FixedIntervalPolicy",
]

SNAPSHOT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Array codec (exact, with integrity accounting)
# ---------------------------------------------------------------------------


def _encode_array(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a).tobytes()
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(data).decode("ascii"),
    }


def _decode_array(obj: object, where: str) -> np.ndarray:
    if not isinstance(obj, dict) or not {"dtype", "shape", "data"} <= set(obj):
        raise SnapshotError(f"{where}: array entry malformed")
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        dtype = np.dtype(obj["dtype"])
        shape = tuple(int(s) for s in obj["shape"])
    except (binascii.Error, TypeError, ValueError) as exc:
        raise SnapshotError(f"{where}: undecodable array: {exc}") from exc
    expect = dtype.itemsize * math.prod(shape)
    if len(raw) != expect:
        raise SnapshotError(
            f"{where}: truncated array payload ({len(raw)} B, expected {expect} B)"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _array_crc(crc: int, a: np.ndarray) -> int:
    return binascii.crc32(np.ascontiguousarray(a).tobytes(), crc)


# ---------------------------------------------------------------------------
# The snapshot object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingSnapshot:
    """A complete, resumable image of a :class:`Trainer` mid-fit."""

    cursor: FitCursor
    #: ``(layer_name, param_name) -> array`` copies of every parameter.
    params: dict[tuple[str, str], np.ndarray]
    #: optimizer class name, for restore-time compatibility checking.
    optimizer_type: str
    #: :meth:`Optimizer.state_dict <repro.autodiff.optim.Optimizer.state_dict>` copy.
    optimizer_state: dict
    history: tuple[EpochRecord, ...]
    #: shuffle seed the run was started with (resume must match).
    shuffle_seed: int

    @property
    def nbytes(self) -> int:
        """Payload size: parameters plus optimizer arrays."""
        n = sum(int(a.nbytes) for a in self.params.values())
        for v in self.optimizer_state.values():
            if isinstance(v, dict):
                n += sum(int(a.nbytes) for a in v.values())
        return n


def capture_snapshot(trainer: Trainer, cursor: FitCursor) -> TrainingSnapshot:
    """Copy the trainer's full state at ``cursor`` into a snapshot.

    Arrays are deep-copied, so the snapshot stays valid while training
    moves on.  Records a ``recovery``-category ``snapshot_capture``
    trace event and bumps the ``resilience.snapshots`` counter.
    """
    params = {
        (layer.name, pname): value.copy()
        for layer in trainer.net.layers
        for pname, value in layer.params.items()
    }
    snap = TrainingSnapshot(
        cursor=cursor,
        params=params,
        optimizer_type=type(trainer.optimizer).__name__,
        optimizer_state=trainer.optimizer.state_dict(),
        history=tuple(trainer.history),
        shuffle_seed=trainer.config.shuffle_seed,
    )
    get_metrics().counter("resilience.snapshots").inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "snapshot_capture",
            category="recovery",
            step=cursor.step,
            epoch=cursor.epoch,
            nbytes=snap.nbytes,
        )
    return snap


def restore_snapshot(trainer: Trainer, snap: TrainingSnapshot) -> FitCursor:
    """Load ``snap`` into the trainer, in place; returns the resume cursor.

    Validates structural compatibility (same layers/params/shapes, same
    optimizer family, same shuffle seed) and raises
    :class:`~repro.errors.SnapshotError` on any mismatch — resuming a
    different model from a stale snapshot must never half-succeed.
    """
    if snap.shuffle_seed != trainer.config.shuffle_seed:
        raise SnapshotError(
            f"snapshot was taken with shuffle_seed={snap.shuffle_seed}, "
            f"trainer has {trainer.config.shuffle_seed}"
        )
    if snap.optimizer_type != type(trainer.optimizer).__name__:
        raise SnapshotError(
            f"snapshot optimizer {snap.optimizer_type!r} != "
            f"trainer optimizer {type(trainer.optimizer).__name__!r}"
        )
    live = {
        (layer.name, pname): value
        for layer in trainer.net.layers
        for pname, value in layer.params.items()
    }
    if set(live) != set(snap.params):
        missing = set(live) ^ set(snap.params)
        raise SnapshotError(f"snapshot/net parameter mismatch: {sorted(missing)[:4]}")
    for key, stored in snap.params.items():
        if live[key].shape != stored.shape:
            raise SnapshotError(
                f"parameter {key}: shape {stored.shape} != live {live[key].shape}"
            )
        live[key][...] = stored
    try:
        trainer.optimizer.load_state_dict(snap.optimizer_state)
    except (KeyError, ValueError, TypeError) as exc:
        raise SnapshotError(f"optimizer state does not load: {exc}") from exc
    trainer.history[:] = list(snap.history)
    trainer._step = snap.cursor.step
    get_metrics().counter("resilience.restores").inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "snapshot_restore",
            category="recovery",
            step=snap.cursor.step,
            epoch=snap.cursor.epoch,
        )
    return snap.cursor


# ---------------------------------------------------------------------------
# Serialization (checkpointing.serialize conventions)
# ---------------------------------------------------------------------------


def snapshot_to_json(snap: TrainingSnapshot, indent: int | None = None) -> str:
    """Serialize a snapshot to the versioned JSON format."""
    crc = 0
    params = []
    for (layer, pname), a in sorted(snap.params.items()):
        params.append([layer, pname, _encode_array(a)])
        crc = _array_crc(crc, a)
    opt_state: dict = {}
    for key, value in snap.optimizer_state.items():
        if isinstance(value, dict):
            items = []
            for (layer, pname), a in sorted(value.items()):
                arr = np.asarray(a)
                items.append([layer, pname, _encode_array(arr)])
                crc = _array_crc(crc, arr)
            opt_state[key] = {"kind": "gradmap", "items": items}
        elif isinstance(value, (int, float)):
            opt_state[key] = {"kind": "scalar", "value": value}
        else:
            raise SnapshotError(
                f"optimizer state field {key!r} has unserializable type "
                f"{type(value).__name__}"
            )
    c = snap.cursor
    payload = {
        "version": SNAPSHOT_FORMAT_VERSION,
        "cursor": {
            "epoch": c.epoch,
            "batch": c.batch,
            "step": c.step,
            "loss_sum": c.loss_sum,
            "peak_bytes": c.peak_bytes,
        },
        "shuffle_seed": snap.shuffle_seed,
        "params": params,
        "optimizer": {"type": snap.optimizer_type, "state": opt_state},
        "history": [[r.epoch, r.mean_loss, r.peak_bytes] for r in snap.history],
        "crc32": crc,
    }
    return json.dumps(payload, indent=indent)


def snapshot_from_json(text: str) -> TrainingSnapshot:
    """Parse and integrity-check a serialized snapshot.

    Raises :class:`~repro.errors.SnapshotError` — never a bare
    ``json``/``numpy`` stack trace — on malformed, corrupted or
    truncated input.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"invalid snapshot JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot JSON must be an object")
    version = payload.get("version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot format version {version!r}")
    for key in ("cursor", "shuffle_seed", "params", "optimizer", "history", "crc32"):
        if key not in payload:
            raise SnapshotError(f"snapshot JSON missing {key!r}")
    raw_cursor = payload["cursor"]
    if not isinstance(raw_cursor, dict):
        raise SnapshotError("cursor must be an object")
    try:
        cursor = FitCursor(
            epoch=int(raw_cursor["epoch"]),
            batch=int(raw_cursor["batch"]),
            step=int(raw_cursor["step"]),
            loss_sum=float(raw_cursor["loss_sum"]),
            peak_bytes=int(raw_cursor["peak_bytes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed cursor: {exc}") from exc

    crc = 0
    params: dict[tuple[str, str], np.ndarray] = {}
    if not isinstance(payload["params"], list):
        raise SnapshotError("params must be a list")
    for i, item in enumerate(payload["params"]):
        if not (isinstance(item, list) and len(item) == 3):
            raise SnapshotError(f"param {i} must be a [layer, name, array] triple")
        layer, pname, enc = item
        a = _decode_array(enc, f"param {layer}.{pname}")
        params[(str(layer), str(pname))] = a
        crc = _array_crc(crc, a)

    raw_opt = payload["optimizer"]
    if not (isinstance(raw_opt, dict) and "type" in raw_opt and "state" in raw_opt):
        raise SnapshotError("optimizer section malformed")
    opt_state: dict = {}
    for key, entry in raw_opt["state"].items():
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SnapshotError(f"optimizer state field {key!r} malformed")
        if entry["kind"] == "scalar":
            opt_state[key] = entry.get("value")
        elif entry["kind"] == "gradmap":
            table = {}
            for item in entry.get("items", ()):
                if not (isinstance(item, list) and len(item) == 3):
                    raise SnapshotError(f"optimizer field {key!r}: malformed entry")
                layer, pname, enc = item
                a = _decode_array(enc, f"optimizer {key}[{layer}.{pname}]")
                table[(str(layer), str(pname))] = a
                crc = _array_crc(crc, a)
            opt_state[key] = table
        else:
            raise SnapshotError(f"optimizer state field {key!r}: unknown kind")

    if crc != payload["crc32"]:
        raise SnapshotError(
            f"snapshot payload CRC mismatch (stored {payload['crc32']}, "
            f"computed {crc}) — file is corrupted"
        )
    history = []
    if not isinstance(payload["history"], list):
        raise SnapshotError("history must be a list")
    for i, item in enumerate(payload["history"]):
        if not (isinstance(item, list) and len(item) == 3):
            raise SnapshotError(f"history entry {i} must be [epoch, loss, peak]")
        history.append(
            EpochRecord(epoch=int(item[0]), mean_loss=float(item[1]), peak_bytes=int(item[2]))
        )
    return TrainingSnapshot(
        cursor=cursor,
        params=params,
        optimizer_type=str(raw_opt["type"]),
        optimizer_state=opt_state,
        history=tuple(history),
        shuffle_seed=int(payload["shuffle_seed"]),
    )


def write_snapshot(path: str | pathlib.Path, snap: TrainingSnapshot) -> int:
    """Atomically write a snapshot file; returns bytes written.

    Write-then-rename, so a crash mid-write leaves the previous durable
    snapshot intact — the invariant the whole recovery story rests on.
    """
    text = snapshot_to_json(snap)
    atomic_write_text(pathlib.Path(path), text)
    return len(text)


def read_snapshot(path: str | pathlib.Path) -> TrainingSnapshot:
    """Load a snapshot file (typed errors for missing/corrupt files)."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return snapshot_from_json(text)


# ---------------------------------------------------------------------------
# Interval policies
# ---------------------------------------------------------------------------


def young_daly_interval(mtbf_seconds: float, snapshot_seconds: float) -> float:
    """The Young/Daly optimal snapshot interval ``τ* = √(2·δ·MTBF)``."""
    if not all(0 < x < math.inf for x in (mtbf_seconds, snapshot_seconds)):
        raise ConfigError("MTBF and snapshot cost must be positive")
    return math.sqrt(2.0 * snapshot_seconds * mtbf_seconds)


class FixedIntervalPolicy:
    """Snapshot every ``interval_steps`` optimizer steps."""

    def __init__(self, interval_steps: int) -> None:
        self.interval_steps = int(at_least("interval_steps", interval_steps, 1))

    def due(self, step: int, last_snapshot_step: int) -> bool:
        """True when ``step`` should pay the write cost."""
        return step - last_snapshot_step >= self.interval_steps
