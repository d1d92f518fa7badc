"""Unified measurements emitted by the schedule virtual machine.

One step record (:class:`StepStats`) per executed action, one aggregate
(:class:`RunStats`) per run — shared by every backend, so the simulator's
analytic accounting, the tensor executor's live-byte metering and the
tiered-storage transfer costs all come out in the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..checkpointing.actions import ActionKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..checkpointing.chainspec import ChainSpec

__all__ = ["StepStats", "TierStats", "CompressionStats", "RunStats"]


@dataclass(frozen=True)
class StepStats:
    """VM state right after one schedule action.

    Delivered to the ``on_step`` callback of
    :func:`~repro.engine.vm.execute`; construction is skipped entirely
    when no callback is registered, so the hot loop pays nothing.
    """

    #: action index within the schedule
    pos: int
    kind: ActionKind
    arg: int
    #: activation index held by the cursor after the action
    cursor: int
    occupied_slots: int
    #: running pure-forward step count (sum of ADVANCE lengths so far)
    forward_steps: int
    #: running adjoint-replay count
    replay_steps: int
    #: backward steps completed so far
    backwards_done: int
    #: bytes currently held in checkpoint slots (backend accounting)
    slot_bytes: int
    #: total live bytes (slots + cursor, plus gradients where real)
    live_bytes: int
    #: storage transfer seconds charged by this action (tiered backends)
    transfer_seconds: float
    #: monotonic clock reading taken just before the action executed
    started: float


@dataclass(frozen=True)
class TierStats:
    """Per-storage-tier ledger of an executed schedule."""

    name: str
    writes: int
    reads: int
    write_seconds: float
    read_seconds: float
    peak_slots: int
    peak_bytes: int
    #: activation bytes moved into / out of this tier's slots
    bytes_written: int = 0
    bytes_read: int = 0

    @property
    def transfer_seconds(self) -> float:
        """Total time spent moving checkpoints through this tier."""
        return self.write_seconds + self.read_seconds

    @property
    def bytes_moved(self) -> int:
        """Total traffic through this tier (writes + reads)."""
        return self.bytes_written + self.bytes_read


@dataclass(frozen=True)
class CompressionStats:
    """Codec ledger of an executed schedule (compressed backends only).

    ``bytes_saved`` is raw-minus-stored over every compressed SNAPSHOT;
    ``codec_seconds`` is already folded into the run's
    ``transfer_seconds`` (a compressed transfer costs storage I/O *plus*
    the codec pass), it is broken out here for attribution only.
    ``fidelity_loss`` is the codec's declared per-activation relative
    gradient error bound — ``0.0`` means every restore was bit-exact.
    """

    codec: str
    ratio: float
    compress_calls: int
    decompress_calls: int
    compress_seconds: float
    decompress_seconds: float
    bytes_saved: int
    fidelity_loss: float = 0.0

    @property
    def codec_seconds(self) -> float:
        """Total time spent inside the codec (both directions)."""
        return self.compress_seconds + self.decompress_seconds

    @property
    def lossless(self) -> bool:
        return self.fidelity_loss == 0.0


@dataclass(frozen=True)
class RunStats:
    """Aggregate outcome of executing one schedule on one backend."""

    strategy: str
    length: int
    #: pure forward step executions (sum of ADVANCE lengths)
    forward_steps: int
    forward_cost: float
    #: forwards replayed inside adjoints (== length under Revolve semantics)
    replay_steps: int
    replay_cost: float
    backward_cost: float
    #: per-step forward execution counts, index i-1 -> executions of F_i
    executions: tuple[int, ...]
    #: peak bytes held in checkpoint slots (excluding the cursor)
    peak_slot_bytes: int
    #: peak bytes including the cursor's activation (and live gradients
    #: for tensor backends)
    peak_bytes: int
    #: maximum number of simultaneously occupied slots
    peak_slots: int
    snapshots_taken: int
    restores: int
    #: total storage transfer seconds (zero for untired backends)
    transfer_seconds: float = 0.0
    #: per-tier breakdown, empty unless the backend is tier-aware
    tiers: tuple[TierStats, ...] = ()
    #: codec ledger, ``None`` unless the backend is compression-aware
    compression: CompressionStats | None = None

    @property
    def total_time(self) -> float:
        """Raw machine time: every advance, replay and backward charged."""
        return self.forward_cost + self.replay_cost + self.backward_cost

    @property
    def total_forward_executions(self) -> int:
        return self.forward_steps + self.replay_steps

    def extra_forward_steps(self) -> int:
        """Advance steps beyond the mandatory ``l-1`` sweep.

        The replay inside each adjoint is an executor artifact — a real
        framework fuses that forward into the original sweep — so the
        recomputation overhead is measured on pure ADVANCE steps against
        the ``l-1`` advances even store-all needs.  For Revolve schedules
        this equals :func:`repro.checkpointing.revolve.extra_forwards`.
        """
        return self.forward_steps - (self.length - 1)

    def extra_forward_cost(self, spec: "ChainSpec") -> float:
        """Cost-weighted version of :meth:`extra_forward_steps`."""
        sweep = spec.total_fwd_cost - spec.fwd_cost[-1]
        return self.forward_cost - sweep

    def effective_time(self, spec: "ChainSpec") -> float:
        """Training-step time under fused-youturn semantics.

        Baseline (store-all) plus the recomputation overhead: the paper's
        time model for Figure 1.
        """
        return spec.baseline_time + self.extra_forward_cost(spec)

    def recompute_factor(self, spec: "ChainSpec") -> float:
        """ρ = effective time / store-all baseline time (>= 1)."""
        return self.effective_time(spec) / spec.baseline_time

    def tier(self, name: str) -> TierStats:
        """The ledger of one storage tier, by name."""
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(f"no tier {name!r}; have {[t.name for t in self.tiers]}")
