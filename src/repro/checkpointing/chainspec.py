"""Chain specifications consumed by checkpointing algorithms.

A :class:`ChainSpec` describes an ``l``-step chain ``F_1 .. F_l`` mapping
``x_0 -> x_l``:

* ``act_bytes[i]`` — size of activation ``x_i`` for ``i`` in ``0..l``
  (``x_0`` is the chain input);
* ``fwd_cost[i]`` / ``bwd_cost[i]`` — cost of ``F_i`` / ``B_i`` for ``i``
  in ``1..l`` (stored 0-indexed as step ``i`` at position ``i-1``).

Homogeneous chains (the paper's ``LinearResNet``) have all-equal entries;
heterogeneous chains (real ResNet block chains) feed the general DP in
:mod:`repro.checkpointing.dynprog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..errors import ScheduleError
from ..graph import LinearChain

__all__ = ["ChainSpec"]


@dataclass(frozen=True)
class ChainSpec:
    """Sizes and costs of an ``l``-step reversible chain."""

    name: str
    act_bytes: tuple[int, ...]  # length l+1: x_0 .. x_l
    fwd_cost: tuple[float, ...]  # length l: F_1 .. F_l
    bwd_cost: tuple[float, ...]  # length l: B_1 .. B_l

    def __post_init__(self) -> None:
        l = len(self.fwd_cost)
        if l < 1:
            raise ScheduleError("chain must have at least one step")
        if len(self.act_bytes) != l + 1:
            raise ScheduleError(
                f"act_bytes must have length l+1={l + 1}, got {len(self.act_bytes)}"
            )
        if len(self.bwd_cost) != l:
            raise ScheduleError(f"bwd_cost must have length l={l}")
        # Whole-tuple C-level scans, no Python call per element: plan sweeps
        # build one spec per point.  isfinite fails NaN and ±inf.
        if not (all(map(math.isfinite, self.act_bytes)) and min(self.act_bytes) >= 0):
            raise ScheduleError("activation sizes must be finite and non-negative")
        costs = (self.fwd_cost, self.bwd_cost)
        if not all(all(map(math.isfinite, c)) and min(c) >= 0 for c in costs):
            raise ScheduleError("step costs must be finite and non-negative")

    # -- constructors -----------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        length: int,
        act_bytes: int = 1,
        fwd_cost: float = 1.0,
        bwd_cost: float = 1.0,
        name: str = "chain",
    ) -> "ChainSpec":
        """Unit chain with ``length`` identical steps."""
        return cls(
            name=name,
            act_bytes=(act_bytes,) * (length + 1),
            fwd_cost=(fwd_cost,) * length,
            bwd_cost=(bwd_cost,) * length,
        )

    @classmethod
    def from_linear_chain(cls, chain: LinearChain, bwd_ratio: float = 1.0) -> "ChainSpec":
        """From a homogenized :class:`~repro.graph.LinearChain`.

        ``x_0`` gets the true input size; every other activation the
        homogenized per-step size.  ``bwd_ratio`` scales backward cost
        relative to forward (the paper's Figure 1 uses 1.0).
        """
        acts = (chain.input_bytes,) + (chain.act_bytes,) * chain.length
        fwd = (float(chain.step_flops or 1),) * chain.length
        return cls(
            name=chain.name,
            act_bytes=acts,
            fwd_cost=fwd,
            bwd_cost=tuple(f * bwd_ratio for f in fwd),
        )

    # -- queries -----------------------------------------------------------
    @property
    def length(self) -> int:
        return len(self.fwd_cost)

    @property
    def is_homogeneous(self) -> bool:
        return (
            len(set(self.act_bytes[1:])) == 1
            and len(set(self.fwd_cost)) == 1
            and len(set(self.bwd_cost)) == 1
        )

    @property
    def total_fwd_cost(self) -> float:
        return sum(self.fwd_cost)

    @property
    def total_bwd_cost(self) -> float:
        return sum(self.bwd_cost)

    @property
    def baseline_time(self) -> float:
        """Store-all training time: one forward plus one backward sweep."""
        return self.total_fwd_cost + self.total_bwd_cost

    @property
    def store_all_bytes(self) -> int:
        """Bytes to hold every activation ``x_1..x_l`` simultaneously."""
        return sum(self.act_bytes[1:])

    @cached_property
    def fwd_prefix(self) -> tuple[float, ...]:
        """Running forward cost: ``fwd_prefix[i]`` = cost of ``F_1 .. F_i``.

        Accumulated left to right with plain float addition, so both
        :meth:`advance_cost` and the vectorized compiled-program path
        (which turns this tuple into an array and takes differences)
        produce bit-identical costs.
        """
        prefix = [0.0]
        running = 0.0
        for c in self.fwd_cost:
            running += c
            prefix.append(running)
        return tuple(prefix)

    def advance_cost(self, start: int, stop: int) -> float:
        """Cost of computing ``x_{start+1} .. x_stop`` from ``x_start``."""
        if not 0 <= start < stop <= self.length:
            raise ScheduleError(f"invalid advance {start}->{stop} on chain of length {self.length}")
        prefix = self.fwd_prefix
        return prefix[stop] - prefix[start]
