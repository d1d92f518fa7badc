"""Planning: recompute factor ρ ↔ checkpoint slots ↔ peak memory.

This implements the paper's Section VI analysis.  For a homogeneous chain
of depth ``l`` with per-slot activation size ``slot_bytes`` (= batch ×
per-layer activation) and batch-independent ``fixed_bytes`` (weights ×
optimizer copies):

* a slot count ``c`` costs ``extra_forwards(l, c)`` recomputed steps, so
  its recompute factor is ``ρ(c) = 1 + extra/(l·(1+r))`` with ``r`` the
  backward/forward cost ratio (the paper takes r = 1, giving the "2ρl"
  budget);
* its peak memory is ``fixed_bytes + (c + 1)·slot_bytes`` — the ``c``
  snapshots plus the in-flight activation, which at ``c = l−1`` recovers
  exactly the store-all footprint of Tables I–III;
* :func:`slots_for_rho` inverts the first map (binary search, since extra
  is monotone in c) and :func:`rho_for_budget` inverts the second.

:func:`plan_training` combines them into the user-facing decision: given a
device budget, pick store-all if it fits, otherwise the optimal Revolve
slot count, reporting the ρ paid — with the uniform
(``checkpoint_sequential``) alternative quantified for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..errors import MemoryBudgetError, PlanningError
from .chainspec import ChainSpec
from .revolve import extra_forwards, min_slots_for_extra
from .strategies import available_strategies, get_strategy, rho_from_extra

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile

__all__ = [
    "PlanPoint",
    "TrainingPlan",
    "FrontierPoint",
    "CompressedFrontierPoint",
    "rho_for_slots",
    "slots_for_rho",
    "slots_for_rhos",
    "memory_for_slots",
    "max_slots_in_budget",
    "memory_curve",
    "rho_for_budget",
    "plan_training",
    "compare_strategies",
    "joint_frontier",
    "compressed_frontier",
]


def rho_for_slots(l: int, c: int, bwd_ratio: float = 1.0) -> float:
    """Recompute factor achieved by the optimal schedule with ``c`` slots."""
    return rho_from_extra(l, extra_forwards(l, c), bwd_ratio)


def slots_for_rho(l: int, rho: float, bwd_ratio: float = 1.0) -> int:
    """Minimal slot count with recompute factor ≤ ``rho``.

    ``rho`` must be ≥ 1; ``rho = 1`` demands no recomputation and returns
    ``l − 1`` (store-all, the ``c+1 = l`` slot footprint).
    """
    if rho < 1.0:
        raise PlanningError(f"recompute factor must be >= 1, got {rho}")
    budget = (rho - 1.0) * l * (1.0 + bwd_ratio)
    return min_slots_for_extra(l, budget)


@lru_cache(maxsize=256)
def _extras_by_slots(l: int) -> tuple[int, ...]:
    """``extra_forwards(l, c)`` for ``c`` in ``1 .. max(1, l-1)``.

    Non-increasing in ``c`` and ending at 0 (``c >= l-1`` needs no
    recomputation), which is what lets a whole ρ grid be inverted with
    one sorted search.
    """
    return tuple(extra_forwards(l, c) for c in range(1, max(1, l - 1) + 1))


def slots_for_rhos(
    l: int,
    rhos: list[float] | tuple[float, ...],
    bwd_ratio: float = 1.0,
) -> list[int]:
    """Batched :func:`slots_for_rho`: minimal slots for every ρ at once.

    One pass builds the extra-forwards table for ``l``; a single
    ``np.searchsorted`` then answers the whole grid, replacing one
    binary search (each re-evaluating the β closed form per probe) per
    ρ.  Element-for-element identical to calling :func:`slots_for_rho`
    in a loop, including the validation error for any ρ < 1.
    """
    for rho in rhos:
        if rho < 1.0:
            raise PlanningError(f"recompute factor must be >= 1, got {rho}")
    if not rhos:
        return []
    extras = _extras_by_slots(l)
    n = len(extras)
    # Reversed, extras are non-decreasing: index c-1 holds extra(l, c),
    # so position j in the reversed view is extra(l, n - j).
    ascending = np.asarray(extras[::-1], dtype=np.float64)
    budgets = np.asarray(
        [(rho - 1.0) * l * (1.0 + bwd_ratio) for rho in rhos], dtype=np.float64
    )
    # Count extras <= budget; the smallest feasible c is n - count + 1.
    # count >= 1 always because extra(l, max(1, l-1)) == 0 <= budget.
    counts = np.searchsorted(ascending, budgets, side="right")
    return [int(n - count + 1) for count in counts]


def memory_for_slots(c: int, fixed_bytes: float, slot_bytes: float) -> float:
    """Peak bytes: fixed + (c snapshots + 1 in-flight) activations."""
    if c < 0:
        raise PlanningError("slot count must be >= 0")
    return fixed_bytes + (c + 1) * slot_bytes


def max_slots_in_budget(budget_bytes: float, fixed_bytes: float, slot_bytes: float) -> int:
    """Largest ``c`` with ``memory_for_slots(c) <= budget``.

    Raises :class:`~repro.errors.MemoryBudgetError` when not even one slot
    plus the in-flight activation fits (``c = 1`` is the Revolve minimum).
    """
    if slot_bytes <= 0:
        raise PlanningError("slot_bytes must be positive")
    c = math.floor((budget_bytes - fixed_bytes) / slot_bytes) - 1
    if c < 1:
        need = memory_for_slots(1, fixed_bytes, slot_bytes)
        raise MemoryBudgetError(
            f"budget {budget_bytes:.0f} B cannot hold even 1 checkpoint slot "
            f"(needs {need:.0f} B)"
        )
    return c


@dataclass(frozen=True)
class PlanPoint:
    """One point of the paper's Figure 1 curves."""

    rho: float
    slots: int
    extra_forwards: int
    memory_bytes: float


def memory_curve(
    l: int,
    fixed_bytes: float,
    slot_bytes: float,
    rhos: list[float] | tuple[float, ...],
    bwd_ratio: float = 1.0,
) -> list[PlanPoint]:
    """Peak memory as a function of ρ — one Figure 1 line.

    The whole ρ grid is inverted in one :func:`slots_for_rhos` batch;
    ``extra_forwards`` values come from the same precomputed table.
    """
    slots = slots_for_rhos(l, tuple(rhos), bwd_ratio)
    extras = _extras_by_slots(l)
    return [
        PlanPoint(
            rho=rho,
            slots=c,
            extra_forwards=extras[c - 1],
            memory_bytes=memory_for_slots(c, fixed_bytes, slot_bytes),
        )
        for rho, c in zip(rhos, slots)
    ]


def rho_for_budget(
    l: int,
    fixed_bytes: float,
    slot_bytes: float,
    budget_bytes: float,
    bwd_ratio: float = 1.0,
) -> PlanPoint:
    """Best achievable ρ within a byte budget (inverse of the curve)."""
    c = min(max_slots_in_budget(budget_bytes, fixed_bytes, slot_bytes), max(1, l - 1))
    return PlanPoint(
        rho=rho_for_slots(l, c, bwd_ratio),
        slots=c,
        extra_forwards=extra_forwards(l, c),
        memory_bytes=memory_for_slots(c, fixed_bytes, slot_bytes),
    )


@dataclass(frozen=True)
class TrainingPlan:
    """Outcome of :func:`plan_training`."""

    model: str
    budget_bytes: float
    strategy: str  # "store_all" | "revolve"
    slots: int
    rho: float
    memory_bytes: float
    store_all_bytes: float
    #: ρ the uniform (checkpoint_sequential) strategy would pay in the
    #: same budget, or None when no segmentation fits.
    uniform_rho: float | None = None

    @property
    def fits(self) -> bool:
        return self.memory_bytes <= self.budget_bytes

    @property
    def savings_fraction(self) -> float:
        """Fraction of the store-all footprint eliminated."""
        if self.store_all_bytes <= 0:
            return 0.0
        return 1.0 - self.memory_bytes / self.store_all_bytes


def plan_training(
    l: int,
    fixed_bytes: float,
    slot_bytes: float,
    budget_bytes: float,
    bwd_ratio: float = 1.0,
    model: str = "chain",
) -> TrainingPlan:
    """Choose a training strategy for a device budget.

    Store-all when it fits (ρ = 1); otherwise the largest Revolve slot
    count that fits, with the ρ it costs.  Raises
    :class:`~repro.errors.MemoryBudgetError` when even ``c = 1`` does not
    fit — then no chain-checkpointing strategy can train this model.
    """
    store_all = memory_for_slots(max(1, l - 1), fixed_bytes, slot_bytes)
    if store_all <= budget_bytes:
        return TrainingPlan(
            model=model,
            budget_bytes=budget_bytes,
            strategy="store_all",
            slots=max(1, l - 1),
            rho=1.0,
            memory_bytes=store_all,
            store_all_bytes=store_all,
            uniform_rho=1.0,
        )
    point = rho_for_budget(l, fixed_bytes, slot_bytes, budget_bytes, bwd_ratio)
    uniform = get_strategy("uniform")
    # The uniform alternative at equal memory: c slots + the in-flight
    # activation give it c+1 resident activations to segment into.
    uniform_rho = (
        uniform.rho(l, point.slots + 1, bwd_ratio)
        if uniform.feasible(l, point.slots + 1)
        else None
    )
    return TrainingPlan(
        model=model,
        budget_bytes=budget_bytes,
        strategy="revolve",
        slots=point.slots,
        rho=point.rho,
        memory_bytes=point.memory_bytes,
        store_all_bytes=store_all,
        uniform_rho=uniform_rho,
    )


def compare_strategies(
    l: int,
    slot_budget: int,
    bwd_ratio: float = 1.0,
    strategies: tuple[str, ...] | list[str] | None = None,
) -> dict[str, float]:
    """ρ of each registered strategy at an equal slot budget (∞ when
    infeasible).

    By default every strategy in the registry is priced — ``revolve``
    (optimal), ``uniform`` (best ``checkpoint_sequential`` fitting the
    budget), ``sqrt`` (Chen's √l, only when its footprint fits),
    ``store_all`` (only when l−1 slots fit), plus the DP and two-tier
    families; pass ``strategies`` to restrict the comparison.  The
    paper's Section VI claim is revolve ≤ uniform everywhere, with the
    gap widest at small budgets.
    """
    if slot_budget < 1:
        raise PlanningError("slot budget must be >= 1")
    names = available_strategies() if strategies is None else tuple(strategies)
    out: dict[str, float] = {}
    for name in names:
        strat = get_strategy(name)
        out[name] = (
            strat.rho(l, slot_budget, bwd_ratio)
            if strat.feasible(l, slot_budget)
            else math.inf
        )
    return out


@dataclass(frozen=True)
class FrontierPoint:
    """One strategy's *measured* position on the joint memory/time/energy
    frontier — produced by executing its schedule on a tiered backend,
    not by trusting the planner's own cost model."""

    strategy: str
    slots: int
    extra_forwards: int
    peak_memory_bytes: int
    peak_disk_bytes: int
    disk_writes: int
    disk_reads: int
    transfer_seconds: float
    wall_seconds: float
    energy_joules: float


def joint_frontier(
    spec: ChainSpec,
    c: int,
    disk: "StorageProfile | None" = None,
    *,
    unit_seconds: float = 1.0,
    compute_j_per_unit: float | None = None,
    io_w: float | None = None,
) -> list[FrontierPoint]:
    """Execute pure revolve, pure disk-revolve and the two joint plans on
    one tiered device and measure them on a common (wall, energy) scale.

    All four schedules get the same RAM slot budget ``c`` and the same
    storage profile (default SD card).  Wall seconds are compute cost ×
    ``unit_seconds`` plus measured transfer seconds; energy is compute
    cost × ``compute_j_per_unit`` plus ``io_w`` × transfer seconds
    (defaults from :class:`~repro.edge.power.EnergyModel`, the idle-rail
    duty-cycle framing).  Because the joint DP's option set contains both
    pure families' plans as special cases, ``joint_time`` weakly
    dominates both on wall seconds and ``joint_energy`` on joules — this
    function is how that claim is *checked* rather than assumed.
    """
    if c < 1:
        raise PlanningError("slot budget must be >= 1")
    from ..engine.tiered import TieredBackend
    from ..engine.vm import execute
    from .joint import (
        EnergyObjective,
        TimeObjective,
        disk_revolve_schedule,
        joint_schedule,
    )
    from .revolve import revolve_schedule

    if disk is None:
        from ..edge.storage import SD_CARD

        disk = SD_CARD
    tobj = TimeObjective(spec, disk=disk, unit_seconds=unit_seconds)
    eobj = EnergyObjective(
        spec, disk=disk, compute_j_per_unit=compute_j_per_unit, io_w=io_w
    )
    l = spec.length
    c_eff = min(c, max(1, l - 1))
    schedules = (
        ("revolve", revolve_schedule(l, c_eff)),
        ("disk_revolve", disk_revolve_schedule(l, c_eff)),
        ("joint_time", joint_schedule(spec, c, tobj)),
        ("joint_energy", joint_schedule(spec, c, eobj, family="joint_energy")),
    )
    points: list[FrontierPoint] = []
    for name, sched in schedules:
        stats = execute(sched, TieredBackend(spec, disk=disk))
        compute = stats.forward_cost + stats.replay_cost + stats.backward_cost
        mem = stats.tier("memory")
        dsk = stats.tier("disk")
        points.append(
            FrontierPoint(
                strategy=name,
                slots=c,
                extra_forwards=stats.forward_steps - (l - 1),
                peak_memory_bytes=mem.peak_bytes,
                peak_disk_bytes=dsk.peak_bytes,
                disk_writes=dsk.writes,
                disk_reads=dsk.reads,
                transfer_seconds=stats.transfer_seconds,
                wall_seconds=compute * unit_seconds + stats.transfer_seconds,
                energy_joules=compute * eobj.compute_j_per_unit
                + eobj.io_w * stats.transfer_seconds,
            )
        )
    return points


@dataclass(frozen=True)
class CompressedFrontierPoint:
    """One strategy's *measured* position on the compression-aware
    frontier: peak bytes × wall time × gradient fidelity, produced by
    executing its schedule on a tiered / compressed backend."""

    strategy: str
    codec: str
    slots: int
    extra_forwards: int
    peak_bytes: int
    peak_memory_bytes: int
    peak_disk_bytes: int
    bytes_saved: int
    fidelity_loss: float
    transfer_seconds: float
    wall_seconds: float
    energy_joules: float


def compressed_frontier(
    spec: ChainSpec,
    c: int,
    disk: "StorageProfile | None" = None,
    *,
    codec: "CompressionModel | None" = None,
    unit_seconds: float = 1.0,
    compute_j_per_unit: float | None = None,
    io_w: float | None = None,
) -> list[CompressedFrontierPoint]:
    """Execute the pure, paged and compressed families on one device and
    measure them on a common (peak bytes, wall, fidelity) scale.

    Four points: ``revolve`` (everything raw in RAM, the Figure-1
    baseline), ``revolve_zip`` (the same binomial pattern with every
    checkpoint run through ``codec``), ``joint_time`` (recompute vs
    page-to-disk DP) and ``joint_zip`` (the full three-action DP:
    recompute vs page vs page-compressed).  The compressed revolve
    variant is granted the slot count that fits the *same RAM byte
    envelope* as the baseline's ``c`` raw slots —
    ``floor(c / ratio)`` — which is the compression lever's entire
    point: ratio-scaled checkpoints buy extra slots, extra slots buy
    off recomputation, and whether that wins on wall time once codec
    seconds are charged is measured, not assumed.  Under the identity
    codec every compressed point collapses onto its pure family.

    Defaults: SD-card storage and the BitTrain-like sparsity model
    (``ratio`` 0.28, lossless).  ``fidelity_loss`` carries the codec's
    declared gradient-fidelity bound into the frontier so lossy codecs
    (e.g. fp16 casting) are a third lever, not a free win.
    """
    if c < 1:
        raise PlanningError("slot budget must be >= 1")
    from ..engine.compressed import CompressedBackend
    from ..engine.tiered import TieredBackend
    from ..engine.vm import execute
    from .joint import EnergyObjective, TimeObjective, joint_schedule
    from .revolve import revolve_schedule
    from .strategies import compressed_variant

    if disk is None:
        from ..edge.storage import SD_CARD

        disk = SD_CARD
    if codec is None:
        from ..edge.storage import BITTRAIN_SPARSE

        codec = BITTRAIN_SPARSE
    l = spec.length
    cap = max(1, l - 1)
    c_eff = min(c, cap)
    tobj = TimeObjective(spec, disk=disk, unit_seconds=unit_seconds)
    zobj = TimeObjective(spec, disk=disk, unit_seconds=unit_seconds, codec=codec)
    # Energy pricing only (rail wattage + J/unit defaults).
    eobj = EnergyObjective(
        spec, disk=disk, compute_j_per_unit=compute_j_per_unit, io_w=io_w
    )

    base_stats = execute(revolve_schedule(l, c_eff), TieredBackend(spec, disk=disk))
    envelope = base_stats.tier("memory").peak_bytes
    # The byte envelope is measured, not derived: real chains carry a
    # small input activation, so ``floor(c / ratio)`` overshoots — walk
    # down from it until the compressed run fits under revolve's peak.
    c_zip = min(cap, max(c_eff, int(c_eff / codec.ratio)))
    zip_stats = execute(
        compressed_variant(revolve_schedule(l, c_zip), "revolve_zip"),
        CompressedBackend(spec, codec, disk=disk),
    )
    while c_zip > c_eff and zip_stats.tier("memory").peak_bytes > envelope:
        c_zip -= 1
        zip_stats = execute(
            compressed_variant(revolve_schedule(l, c_zip), "revolve_zip"),
            CompressedBackend(spec, codec, disk=disk),
        )

    runs = (
        ("revolve", c_eff, base_stats),
        ("revolve_zip", c_zip, zip_stats),
        (
            "joint_time",
            c,
            execute(joint_schedule(spec, c, tobj), TieredBackend(spec, disk=disk)),
        ),
        (
            "joint_zip",
            c,
            execute(
                joint_schedule(spec, c, zobj, family="joint_zip"),
                CompressedBackend(spec, codec, disk=disk),
            ),
        ),
    )
    points: list[CompressedFrontierPoint] = []
    for name, slots, stats in runs:
        compute = stats.forward_cost + stats.replay_cost + stats.backward_cost
        mem = stats.tier("memory")
        dsk = stats.tier("disk")
        z = stats.compression
        points.append(
            CompressedFrontierPoint(
                strategy=name,
                codec=z.codec if z is not None else "none",
                slots=slots,
                extra_forwards=stats.forward_steps - (l - 1),
                peak_bytes=stats.peak_bytes,
                peak_memory_bytes=mem.peak_bytes,
                peak_disk_bytes=dsk.peak_bytes,
                bytes_saved=z.bytes_saved if z is not None else 0,
                fidelity_loss=z.fidelity_loss if z is not None else 0.0,
                transfer_seconds=stats.transfer_seconds,
                wall_seconds=compute * unit_seconds + stats.transfer_seconds,
                energy_joules=compute * eobj.compute_j_per_unit
                + eobj.io_w * stats.transfer_seconds,
            )
        )
    return points
