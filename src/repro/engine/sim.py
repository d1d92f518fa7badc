"""Analytic cost-accounting backend over a :class:`ChainSpec`.

Replaces the body of :func:`repro.checkpointing.simulate`: no tensors,
just the chain's per-step costs and activation sizes.  Byte peaks are
re-charged after every action (including the initial state, where the
cursor holds ``x_0``), matching the original simulator exactly.
"""

from __future__ import annotations

from ..checkpointing.chainspec import ChainSpec
from .backend import BaseBackend

__all__ = ["SimBackend"]


class SimBackend(BaseBackend):
    """Costs from a :class:`~repro.checkpointing.chainspec.ChainSpec`."""

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        self._cursor = 0
        self._slots: dict[int, int] = {}  # slot -> activation index payload
        self._peak_slot_bytes = 0
        self._peak_bytes = 0

    @property
    def chain_length(self) -> int:
        return self.spec.length

    @property
    def slot_bytes(self) -> int:
        act = self.spec.act_bytes
        return sum(act[idx] for idx in self._slots.values())

    @property
    def live_bytes(self) -> int:
        return self.slot_bytes + self.spec.act_bytes[self._cursor]

    @property
    def peak_slot_bytes(self) -> int:
        return self._peak_slot_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    def _charge(self) -> None:
        sb = self.slot_bytes
        if sb > self._peak_slot_bytes:
            self._peak_slot_bytes = sb
        live = sb + self.spec.act_bytes[self._cursor]
        if live > self._peak_bytes:
            self._peak_bytes = live

    def begin(self) -> None:
        self._cursor = 0
        self._slots = {}
        self._peak_slot_bytes = 0
        self._peak_bytes = 0
        self._charge()

    def adopt(
        self,
        cursor: int,
        slots: dict[int, int],
        peak_slot_bytes: int,
        peak_bytes: int,
    ) -> None:
        """Jump to a final machine state computed by a whole-program pass.

        The vectorized compiled-program executor derives the byte
        timeline without calling the per-action methods; this installs
        its end state so the backend is indistinguishable from one that
        ran the program action by action.
        """
        self._cursor = cursor
        self._slots = dict(slots)
        if peak_slot_bytes > self._peak_slot_bytes:
            self._peak_slot_bytes = peak_slot_bytes
        if peak_bytes > self._peak_bytes:
            self._peak_bytes = peak_bytes

    def advance(self, start: int, stop: int) -> float:
        self._cursor = stop
        cost = self.spec.advance_cost(start, stop)
        self._charge()
        return cost

    def snapshot(self, slot: int, index: int) -> float:
        self._slots[slot] = index
        self._charge()
        return 0.0

    def restore(self, slot: int, index: int) -> float:
        self._cursor = index
        self._charge()
        return 0.0

    def free(self, slot: int, index: int) -> float:
        del self._slots[slot]
        self._charge()
        return 0.0

    def adjoint(self, step: int) -> tuple[float, float]:
        # The youturn leaves the cursor at x_{step-1}, where it already is.
        self._charge()
        return self.spec.fwd_cost[step - 1], self.spec.bwd_cost[step - 1]
