"""The pluggable backend surface of the schedule virtual machine.

The compiler (:func:`~repro.engine.program.compile_schedule`) proves
every structural invariant — cursor preconditions, slot budget and
occupancy, backward order, completeness — and precomputes the
authoritative ``slot -> activation index`` map before the VM
(:func:`~repro.engine.vm.execute`) makes its first backend call.  A
backend owns only the *payloads* (abstract cost entries, real tensors,
tier ledgers) and answers with the cost of each action.  The VM calls
exactly one backend method per schedule action, and only for schedules
that compiled, so backends may assume arguments are valid and need no
defensive checks of their own.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .stats import CompressionStats, TierStats

__all__ = ["Backend", "BaseBackend"]


@runtime_checkable
class Backend(Protocol):
    """What the VM needs from an execution backend.

    Cost returns are in the backend's own unit (forward-step units for
    the analytic backends, zero for the tensor backend whose cost is
    wall time measured by the tracer).  ``snapshot``/``restore`` return
    *transfer* cost; ``adjoint`` returns ``(replay_cost, backward_cost)``.
    """

    @property
    def chain_length(self) -> int: ...

    #: bytes currently held in checkpoint slots
    @property
    def slot_bytes(self) -> int: ...

    #: total live bytes (slots + cursor + any gradient flow)
    @property
    def live_bytes(self) -> int: ...

    @property
    def peak_slot_bytes(self) -> int: ...

    @property
    def peak_bytes(self) -> int: ...

    def begin(self) -> None:
        """Reset state; the cursor now holds ``x_0`` (the batch input)."""
        ...

    def advance(self, start: int, stop: int) -> float:
        """Run forwards ``start -> stop``; cursor ends holding ``x_stop``."""
        ...

    def snapshot(self, slot: int, index: int) -> float:
        """Copy the cursor (holding ``x_index``) into ``slot``."""
        ...

    def restore(self, slot: int, index: int) -> float:
        """Load the cursor from ``slot`` (which holds ``x_index``)."""
        ...

    def free(self, slot: int, index: int) -> float:
        """Release ``slot`` (which held ``x_index``)."""
        ...

    def adjoint(self, step: int) -> tuple[float, float]:
        """Youturn of ``step``: replay its forward, apply its backward."""
        ...

    def tier_stats(self) -> tuple[TierStats, ...]:
        """Per-storage-tier ledgers (empty for untired backends)."""
        ...

    def compression_stats(self) -> CompressionStats | None:
        """Codec ledger (``None`` for codec-less backends)."""
        ...


class BaseBackend:
    """Optional convenience base: untired, zero extra bookkeeping."""

    def begin(self) -> None:  # pragma: no cover - trivial default
        return None

    def tier_stats(self) -> tuple[TierStats, ...]:
        return ()

    def compression_stats(self) -> CompressionStats | None:
        return None
