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

:func:`measure_frontier` is the measured counterpart: it *executes* the
pure, paged and compressed families (:data:`FRONTIER_FAMILIES`) on one
tiered/compressed device and returns one :class:`FrontierPoint` each —
peak bytes, wall seconds, joules and gradient fidelity on one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
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
    "FRONTIER_FAMILIES",
    "FrontierPoint",
    "rho_for_slots",
    "slots_for_rho",
    "slots_for_rhos",
    "memory_for_slots",
    "max_slots_in_budget",
    "memory_curve",
    "rho_for_budget",
    "plan_training",
    "compare_strategies",
    "measure_frontier",
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


#: Every family :func:`measure_frontier` can place on the frontier.
FRONTIER_FAMILIES = (
    "revolve", "disk_revolve", "revolve_zip", "joint_time", "joint_energy", "joint_zip",
)


@dataclass(frozen=True)
class FrontierPoint:
    """One strategy's *measured* position on the memory/time/energy/
    fidelity frontier — produced by executing its schedule on a tiered or
    compressed backend, not by trusting the planner's own cost model.

    ``slots`` is the RAM slot count the family was planned with; the
    codec fields keep their defaults for families that compress nothing.
    """

    strategy: str
    slots: int
    extra_forwards: int
    peak_bytes: int
    peak_memory_bytes: int
    peak_disk_bytes: int
    disk_writes: int
    disk_reads: int
    transfer_seconds: float
    wall_seconds: float
    energy_joules: float
    codec: str = "none"
    bytes_saved: int = 0
    fidelity_loss: float = 0.0


def measure_frontier(
    spec: ChainSpec,
    c: int,
    families: tuple[str, ...] | list[str],
    disk: "StorageProfile | None" = None,
    *,
    codec: "CompressionModel | None" = None,
    unit_seconds: float = 1.0,
    compute_j_per_unit: float | None = None,
    io_w: float | None = None,
) -> list[FrontierPoint]:
    """Execute each of ``families`` (:data:`FRONTIER_FAMILIES`) on one
    device and measure them on one (peak bytes, wall, joules, fidelity)
    scale, in the order given.

    ``revolve`` / ``disk_revolve`` run at ``min(c, l-1)`` slots,
    ``joint_time`` / ``joint_energy`` / ``joint_zip`` plan at ``c``, and
    ``revolve_zip`` (every checkpoint through ``codec``) gets the slot
    count that fits revolve's measured RAM byte envelope — whether the
    extra slots win once codec seconds are charged is measured, not
    assumed.  The joint DP's option set holds both pure plans, so
    ``joint_time`` weakly dominates them on wall seconds and
    ``joint_energy`` on joules, and under the identity codec each zip
    point collapses onto its pure twin: this is where those claims are
    *checked*.  Wall is compute × ``unit_seconds`` plus transfer seconds;
    joules are compute × ``compute_j_per_unit`` plus ``io_w`` × transfer
    seconds (:class:`~repro.edge.power.EnergyModel` defaults).  Storage
    defaults to the SD card, the codec to the BitTrain-like sparsity.
    """
    if c < 1:
        raise PlanningError("slot budget must be >= 1")
    families = tuple(families)
    unknown = [name for name in families if name not in FRONTIER_FAMILIES]
    if not families or unknown:
        raise PlanningError(f"families must be drawn from {FRONTIER_FAMILIES}, got {families!r}")
    if not (math.isfinite(unit_seconds) and unit_seconds > 0):
        raise PlanningError(f"unit_seconds must be finite and positive, got {unit_seconds}")
    from ..edge.storage import BITTRAIN_SPARSE, SD_CARD
    from ..engine.compressed import CompressedBackend
    from ..engine.tiered import TieredBackend
    from ..engine.vm import execute
    from .joint import EnergyObjective, TimeObjective, disk_revolve_schedule, joint_schedule
    from .revolve import revolve_schedule
    from .strategies import compressed_variant

    disk = SD_CARD if disk is None else disk
    codec = BITTRAIN_SPARSE if codec is None else codec
    tobj = TimeObjective(spec, disk, unit_seconds)
    zobj = TimeObjective(spec, disk, unit_seconds, codec=codec)
    eobj = EnergyObjective(spec, disk, compute_j_per_unit, io_w)
    l = spec.length
    cap = max(1, l - 1)
    c_eff = min(c, cap)

    def tiered(sched):
        return execute(sched, TieredBackend(spec, disk=disk))

    def zipped(sched):
        return execute(sched, CompressedBackend(spec, codec, disk=disk))

    @cache
    def revolve():
        return c_eff, tiered(revolve_schedule(l, c_eff))

    def revolve_zip():
        # The byte envelope is measured, not derived: real chains carry a
        # small input activation, so ``floor(c / ratio)`` overshoots —
        # walk down from it until the compressed run fits under revolve's
        # peak.
        envelope = revolve()[1].tier("memory").peak_bytes
        c_zip = min(cap, max(c_eff, int(c_eff / codec.ratio)))
        while True:
            stats = zipped(compressed_variant(revolve_schedule(l, c_zip), "revolve_zip"))
            if c_zip == c_eff or stats.tier("memory").peak_bytes <= envelope:
                return c_zip, stats
            c_zip -= 1

    runs = {
        "revolve": revolve,
        "disk_revolve": lambda: (c_eff, tiered(disk_revolve_schedule(l, c_eff))),
        "revolve_zip": revolve_zip,
        "joint_time": lambda: (c, tiered(joint_schedule(spec, c, tobj))),
        "joint_energy": lambda: (c, tiered(joint_schedule(spec, c, eobj, "joint_energy"))),
        "joint_zip": lambda: (c, zipped(joint_schedule(spec, c, zobj, "joint_zip"))),
    }
    points: list[FrontierPoint] = []
    for name in families:
        slots, stats = runs[name]()
        dsk = stats.tier("disk")
        z = stats.compression
        codec_ledger = {} if z is None else dict(
            codec=z.codec, bytes_saved=z.bytes_saved, fidelity_loss=z.fidelity_loss
        )
        points.append(
            FrontierPoint(
                strategy=name,
                slots=slots,
                extra_forwards=stats.extra_forward_steps(),
                peak_bytes=stats.peak_bytes,
                peak_memory_bytes=stats.tier("memory").peak_bytes,
                peak_disk_bytes=dsk.peak_bytes,
                disk_writes=dsk.writes,
                disk_reads=dsk.reads,
                transfer_seconds=stats.transfer_seconds,
                wall_seconds=stats.total_time * unit_seconds + stats.transfer_seconds,
                energy_joules=stats.total_time * eobj.compute_j_per_unit
                + eobj.io_w * stats.transfer_seconds,
                **codec_ledger,
            )
        )
    return points
