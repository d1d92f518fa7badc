"""Joint rematerialization + paging: one DP over recompute *and* tier.

The existing families answer "where does this activation live?" by
fiat — ``revolve`` keeps everything in RAM and recomputes,
``disk_revolve`` pages split points to disk at fixed unit prices.  POET
(see PAPERS.md) frames the two as one optimization: per step, either
recompute an activation when it is needed again, or page it to a storage
tier, under a pluggable objective (wall time, energy).  This module is
that planner for the segment-structured schedules our VM executes.

Model
-----

A plan is a chain of *paged segments*: split positions
``0 = p_0 < p_1 < ... < p_k < l`` with a tier choice ``t_i`` per split.
The forward sweep writes ``x_{p_i}`` to tier ``t_i``; segments are then
reversed right to left, each one a pure in-RAM reversal (the shared
:class:`~repro.checkpointing.dynprog.SegmentDP` core / Revolve closed
form) after one read of its base — except the rightmost, whose base is
still in the cursor.  With ``F(b, t)`` the optimal cost of reversing the
suffix ``[b, l)`` given ``x_b`` already written to tier ``t``:

    F(b, t) = min( inner(b, l),
                   min_{b<m<l, u} [ adv(b, m) + W_u(m) + F(m, u)
                                      + R_t(b) + inner(b, m) ] )

    joint = min( inner(0, l),  min_t [ W_t(0) + F(0, t) ] )

``inner(i, j)`` is the optimal pure-RAM reversal of segment ``[i, j)``
with the ``c``-slot budget; ``W``/``R`` are the objective's per-tier
write/read prices; ``adv`` its advance price.  The option set strictly
contains both pure Revolve (the first branch) and every disk-revolve
plan (unit prices recover Aupy et al.'s ``DR`` recurrence exactly), so
the joint optimum weakly dominates both *by construction* — and beats
them strictly whenever real :class:`~repro.edge.storage.StorageProfile`
prices diverge from the abstract unit costs the pure families assume.

Before the ``b``/``t``/``m``/``u`` loops run, :func:`_solve` tabulates
every price they read: ``W_u(m)`` and ``R_t(b)`` per tier, the advance
costs ``adv(b, ·)`` per base, and ``inner(b, ·)`` — one vector indexed
by segment length for the Revolve closed form (``l`` closed-form
evaluations in all), or the inner
:class:`~repro.checkpointing.dynprog.SegmentDP` row ``(b, c)``.  The
loops themselves are then O(l²·T²) table reads for ``T`` paged tier
codes, on top of the inner solver's O(l³·c) rows on heterogeneous
chains.

Objectives
----------

:class:`UnitCostObjective` prices I/O in forward units (the
disk-revolve convention), :class:`TimeObjective` in seconds through a
storage profile's read/write paths, :class:`EnergyObjective` in joules —
compute energy per forward unit plus rail power held during storage
transfers (the paper's duty-cycle framing: the node cannot sleep while a
checkpoint is in flight).  Anything with ``step_cost`` / ``write_cost``
/ ``read_cost`` / ``paged_tiers`` plugs in.

Compression — the third action
------------------------------

Giving an objective a :class:`~repro.edge.storage.CompressionModel`
doubles its split alphabet: every paged tier gains a *compressed*
variant (BitTrain/POET's framing — per split the planner now chooses
recompute vs page vs page-compressed).  A compressed write moves
``codec.compressed_bytes(size)`` through the storage profile and pays
the codec's encode seconds; a compressed read mirrors it.  Plain tiers
are tried first, so under the identity codec (ratio 1, zero cost) every
tie breaks to the uncompressed variant and the plan collapses exactly
to the codec-less one.  :func:`joint_schedule` emits compressed splits
through the compressed slot band
(:func:`~repro.checkpointing.actions.compressed_slot`), so a
:class:`~repro.engine.compressed.CompressedBackend` with the same
profile and codec reproduces the planned cost exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import PlanningError, ScheduleError
from .actions import (
    TIER_DISK,
    TIER_RAM,
    Action,
    advance,
    compressed_slot,
    free,
    restore,
    snapshot,
    tier_name,
    tier_slot,
)
from .chainspec import ChainSpec
from .dynprog import SlotSegmentDP
from .revolve import _SplitFn, _emit_reverse, opt_forwards
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..edge.storage import CompressionModel, StorageProfile

__all__ = [
    "JointObjective",
    "UnitCostObjective",
    "TimeObjective",
    "EnergyObjective",
    "JointPlan",
    "joint_plan",
    "joint_cost",
    "joint_schedule",
]

_TOL = 1e-12

#: Bit flagging a DP tier code as "store compressed on that tier".  The
#: codes are planner-internal — :func:`joint_schedule` lowers them to
#: the shared slot alphabet's compressed band on emission.
_ZIP_FLAG = 1 << 8


def _zip_tier(tier: int) -> int:
    """DP code for the compressed variant of a storage tier."""
    return tier | _ZIP_FLAG


def _tier_store(code: int) -> int:
    """Storage tier of a DP tier code (compression bit stripped)."""
    return code & ~_ZIP_FLAG


def _tier_zipped(code: int) -> bool:
    """Whether a DP tier code carries the compression bit."""
    return bool(code & _ZIP_FLAG)


def _default_disk() -> "StorageProfile":
    from ..edge.storage import SD_CARD

    return SD_CARD


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


class JointObjective:
    """Prices the joint DP's three primitives on one chain.

    Subclasses set :attr:`label` and implement :meth:`step_cost`,
    :meth:`write_cost` and :meth:`read_cost`; advance prices derive from
    the per-step costs.  All built-in objectives price a step
    proportionally to ``spec.fwd_cost`` (constant factor), so the
    optimal *structure* found in objective units is also optimal in raw
    forward units whenever the prices coincide up to scale.
    """

    label: str = "?"
    #: optional codec; setting it doubles :attr:`paged_tiers` with
    #: compressed variants (see the module docstring)
    codec: "CompressionModel | None" = None

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        prefix = [0.0]
        for k in range(1, spec.length + 1):
            prefix.append(prefix[-1] + self.step_cost(k))
        self._prefix = tuple(prefix)

    # -- required ---------------------------------------------------------
    def step_cost(self, k: int) -> float:
        """Objective cost of one execution of ``F_k`` (``k`` in 1..l)."""
        raise NotImplementedError

    def write_cost(self, tier: int, index: int) -> float:
        """Cost of writing ``x_index`` to ``tier``."""
        raise NotImplementedError

    def read_cost(self, tier: int, index: int) -> float:
        """Cost of reading ``x_index`` back from ``tier``."""
        raise NotImplementedError

    # -- shared -----------------------------------------------------------
    @property
    def paged_tiers(self) -> tuple[int, ...]:
        """Tier codes the planner may page to (RAM is always implicit).

        Plain tiers come first so that, on exact ties, the DP's
        strict-improvement rule keeps the uncompressed variant — the
        lossless-collapse guarantee.
        """
        base = (TIER_DISK,)
        if self.codec is None:
            return base
        return base + tuple(_zip_tier(t) for t in base)

    def advance_cost(self, i: int, j: int) -> float:
        """Objective cost of advancing the cursor from ``x_i`` to ``x_j``."""
        return self._prefix[j] - self._prefix[i]

    @property
    def uniform_step(self) -> float | None:
        """The common per-step cost, or ``None`` when steps differ."""
        costs = {self.step_cost(k) for k in range(1, self.spec.length + 1)}
        return next(iter(costs)) if len(costs) == 1 else None


class UnitCostObjective(JointObjective):
    """Abstract pricing in forward units — the disk-revolve convention.

    A step costs its ``fwd_cost`` entry; any paged write/read costs a
    flat ``write_cost`` / ``read_cost`` regardless of size.  With the
    defaults this is exactly the pricing under which
    :func:`~repro.checkpointing.multilevel.disk_revolve_cost` plans, so
    the joint optimum provably equals it on homogeneous chains.
    """

    def __init__(
        self,
        spec: ChainSpec,
        write_cost: float = 1.0,
        read_cost: float = 1.0,
        codec: "CompressionModel | None" = None,
    ) -> None:
        if write_cost < 0 or read_cost < 0:
            raise PlanningError("paging costs must be non-negative")
        self._write = write_cost
        self._read = read_cost
        self.codec = codec
        self.label = f"unit(w={write_cost:g},r={read_cost:g})"
        if codec is not None:
            self.label = f"unit(w={write_cost:g},r={read_cost:g},zip={codec.name})"
        super().__init__(spec)

    def step_cost(self, k: int) -> float:
        return self.spec.fwd_cost[k - 1]

    def write_cost(self, tier: int, index: int) -> float:
        # Abstract units are byte-proportional: a compressed page moves
        # ``ratio`` of the bytes, codec CPU is free in this currency.
        if _tier_zipped(tier):
            return self._write * self.codec.ratio
        return 0.0 if tier == TIER_RAM else self._write

    def read_cost(self, tier: int, index: int) -> float:
        if _tier_zipped(tier):
            return self._read * self.codec.ratio
        return 0.0 if tier == TIER_RAM else self._read


class TimeObjective(JointObjective):
    """Wall-clock pricing: steps in seconds, I/O through a storage profile.

    ``unit_seconds`` converts ``spec.fwd_cost`` units (e.g. FLOPs) to
    seconds; paged transfers are priced by the profile's
    ``write_seconds`` / ``read_seconds`` of the activation's true byte
    size — the same accounting :class:`~repro.engine.tiered.TieredBackend`
    charges when the schedule actually executes, so planned and measured
    wall time agree exactly.
    """

    def __init__(
        self,
        spec: ChainSpec,
        disk: "StorageProfile | None" = None,
        unit_seconds: float = 1.0,
        codec: "CompressionModel | None" = None,
    ) -> None:
        if unit_seconds <= 0:
            raise PlanningError("unit_seconds must be positive")
        self.disk = disk if disk is not None else _default_disk()
        self.unit_seconds = unit_seconds
        self.codec = codec
        self.label = f"time({self.disk.name})"
        if codec is not None:
            self.label = f"time({self.disk.name}+{codec.name})"
        super().__init__(spec)

    def step_cost(self, k: int) -> float:
        return self.spec.fwd_cost[k - 1] * self.unit_seconds

    def write_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            # Same accounting CompressedBackend charges when executing:
            # the shrunk payload through the storage path plus the codec.
            return (
                self.disk.write_seconds(self.codec.compressed_bytes(raw))
                + self.codec.compress_seconds(raw)
            )
        if tier == TIER_RAM:
            return 0.0
        return self.disk.write_seconds(raw)

    def read_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            return (
                self.disk.read_seconds(self.codec.compressed_bytes(raw))
                + self.codec.decompress_seconds(raw)
            )
        if tier == TIER_RAM:
            return 0.0
        return self.disk.read_seconds(raw)


class EnergyObjective(JointObjective):
    """Energy pricing: compute joules per step, rail power during I/O.

    A forward unit costs ``compute_j_per_unit`` joules (default: the
    :class:`~repro.edge.power.EnergyModel` per-FLOP coefficient, for
    chains whose ``fwd_cost`` is in FLOPs).  A paged transfer holds the
    node awake for the profile's transfer seconds at ``io_w`` watts —
    the duty-cycle framing: storage I/O draws far less than a busy core,
    but the rail cannot gate off while a checkpoint is in flight
    (default: the energy model's idle draw).
    """

    def __init__(
        self,
        spec: ChainSpec,
        disk: "StorageProfile | None" = None,
        compute_j_per_unit: float | None = None,
        io_w: float | None = None,
        codec: "CompressionModel | None" = None,
    ) -> None:
        from ..edge.power import EnergyModel

        model = EnergyModel()
        if compute_j_per_unit is None:
            compute_j_per_unit = model.compute_j_per_flop
        if io_w is None:
            io_w = model.idle_w
        if compute_j_per_unit < 0 or io_w < 0:
            raise PlanningError("energy coefficients must be non-negative")
        self.disk = disk if disk is not None else _default_disk()
        self.compute_j_per_unit = compute_j_per_unit
        self.io_w = io_w
        self.codec = codec
        self.label = f"energy({self.disk.name})"
        if codec is not None:
            self.label = f"energy({self.disk.name}+{codec.name})"
        super().__init__(spec)

    def step_cost(self, k: int) -> float:
        return self.spec.fwd_cost[k - 1] * self.compute_j_per_unit

    def write_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            # The rail stays awake through the storage transfer *and*
            # the codec pass (the codec runs on-node, same duty-cycle
            # framing as the I/O itself).
            seconds = (
                self.disk.write_seconds(self.codec.compressed_bytes(raw))
                + self.codec.compress_seconds(raw)
            )
            return self.io_w * seconds
        if tier == TIER_RAM:
            return 0.0
        return self.io_w * self.disk.write_seconds(raw)

    def read_cost(self, tier: int, index: int) -> float:
        raw = self.spec.act_bytes[index]
        if _tier_zipped(tier):
            seconds = (
                self.disk.read_seconds(self.codec.compressed_bytes(raw))
                + self.codec.decompress_seconds(raw)
            )
            return self.io_w * seconds
        if tier == TIER_RAM:
            return 0.0
        return self.io_w * self.disk.read_seconds(raw)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointPlan:
    """Outcome of :func:`joint_plan`.

    ``splits`` lists ``(position, tier code)`` pairs in ascending
    position order — including ``(0, t)`` for the chain input when the
    plan pages at all; an empty tuple means pure in-RAM Revolve.  A tier
    code is the storage tier, optionally flagged compressed (codec-armed
    objectives only).  ``cost`` is in the objective's units and is
    exactly what executing the emitted schedule on a matching
    :class:`~repro.engine.tiered.TieredBackend` (or
    :class:`~repro.engine.compressed.CompressedBackend`) measures (pure
    advances priced per step plus every paged transfer).
    """

    objective: str
    length: int
    slots: int
    cost: float
    splits: tuple[tuple[int, int], ...]

    @property
    def paged(self) -> bool:
        return bool(self.splits)

    @property
    def tiers_used(self) -> tuple[int, ...]:
        """Storage tiers paged to (compression bit stripped)."""
        return tuple(sorted({_tier_store(t) for _, t in self.splits}))

    @property
    def compressed_splits(self) -> int:
        """How many splits are stored through the codec."""
        return sum(1 for _, t in self.splits if _tier_zipped(t))


class _InnerRevolve:
    """Closed-form inner solver for uniform per-step objective cost."""

    def __init__(self, c: int, unit: float, l: int) -> None:
        self.c = c
        self.unit = unit
        # The closed form depends only on the segment length.
        self._by_length = [0.0] + [opt_forwards(k, c) * unit for k in range(1, l + 1)]

    def costs(self, i: int) -> list[float]:
        """``costs(i)[k]`` = optimal in-RAM reversal cost of ``[i, i+k)``."""
        return self._by_length

    def emit(self, actions: list[Action], i: int, j: int, split_for: _SplitFn) -> None:
        seg_len = j - i
        c_seg = min(self.c, max(1, seg_len - 1))
        pool = list(range(1, c_seg))
        _emit_reverse(actions, i, seg_len, 0, pool, split_for)


class _InnerSegmentDP:
    """Exact segment-DP inner solver for heterogeneous objective cost."""

    def __init__(self, costs: tuple[float, ...], c: int) -> None:
        self.dp = SlotSegmentDP(costs)
        self.c = c

    def costs(self, i: int) -> list[float]:
        """``costs(i)[k]`` = optimal in-RAM reversal cost of ``[i, i+k)``."""
        return self.dp.row(i, self.c)[0][i:]

    def emit(self, actions: list[Action], i: int, j: int, split_for: None) -> None:
        pool = list(range(1, self.c))
        self.dp.emit(actions, i, j, self.c, 0, pool)


def _make_inner(spec: ChainSpec, c: int, objective: JointObjective):
    unit = objective.uniform_step
    if unit is not None:
        return _InnerRevolve(min(c, max(1, spec.length - 1)), unit, spec.length)
    costs = tuple(objective.step_cost(k) for k in range(1, spec.length + 1))
    return _InnerSegmentDP(costs, c)


def _solve(spec: ChainSpec, c: int, objective: JointObjective):
    """Bottom-up outer DP; returns (cost, splits, inner solver)."""
    l = spec.length
    inner = _make_inner(spec, c, objective)
    tiers = objective.paged_tiers
    # Price tables hoisted out of the b/t/m/u loops: W_u(m) and R_t(b).
    write = {u: [objective.write_cost(u, m) for m in range(l)] for u in tiers}
    read = {t: [objective.read_cost(t, b) for b in range(l)] for t in tiers}
    # cost[t][b] = cost of reversing [b, l) with x_b on tier t;
    # choice[t][b] = (first further split m or 0, its tier or -1)
    cost = {t: [0.0] * l for t in tiers}
    choice: dict[int, list[tuple[int, int]]] = {t: [(0, -1)] * l for t in tiers}
    priced = [(u, write[u], cost[u]) for u in tiers]
    prefix = objective._prefix
    for b in range(l - 1, -1, -1):
        inner_b = inner.costs(b)
        # adv_b[k] = advance_cost(b, b + k), from the same prefix sums
        start = prefix[b]
        adv_b = [p - start for p in prefix[b:l]]
        for t in tiers:
            best, best_m, best_u = inner_b[l - b], 0, -1
            read_b = read[t][b]
            for m in range(b + 1, l):
                base = adv_b[m - b] + read_b + inner_b[m - b]
                for u, write_u, cost_u in priced:
                    val = base + write_u[m] + cost_u[m]
                    if val < best - _TOL:
                        best, best_m, best_u = val, m, u
            cost[t][b] = best
            choice[t][b] = (best_m, best_u)

    best, t0 = inner.costs(0)[l], -1
    for t in tiers:
        val = write[t][0] + cost[t][0]
        if val < best - _TOL:
            best, t0 = val, t

    splits: list[tuple[int, int]] = []
    if t0 >= 0:
        b, t = 0, t0
        while True:
            splits.append((b, t))
            m, u = choice[t][b]
            if m == 0:
                break
            b, t = m, u
    return best, tuple(splits), inner


def joint_plan(
    spec: ChainSpec, c: int, objective: JointObjective | None = None
) -> JointPlan:
    """Optimal joint rematerialization+paging plan for ``spec``.

    ``c`` is the RAM slot budget (Revolve's convention — it includes the
    slot holding the active segment's base); paged tiers have unbounded
    slots, priced per access by the objective.  Defaults to
    :class:`UnitCostObjective` (disk-revolve's abstract pricing).
    """
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if objective is None:
        objective = UnitCostObjective(spec)
    if objective.spec is not spec and objective.spec != spec:
        raise PlanningError("objective was built for a different chain")
    cost, splits, _ = _solve(spec, c, objective)
    return JointPlan(
        objective=objective.label,
        length=spec.length,
        slots=c,
        cost=cost,
        splits=splits,
    )


def joint_cost(
    spec: ChainSpec, c: int, objective: JointObjective | None = None
) -> float:
    """Objective cost of the optimal joint plan (see :func:`joint_plan`)."""
    return joint_plan(spec, c, objective).cost


def joint_schedule(
    spec: ChainSpec,
    c: int,
    objective: JointObjective | None = None,
    family: str = "joint_time",
) -> Schedule:
    """Executable schedule achieving :func:`joint_cost`.

    Paged checkpoints use the shared tier-aware slot alphabet
    (:func:`~repro.checkpointing.actions.tier_slot` — split ``i`` on
    tier ``t`` lives in slot ``t·stride + i``, compressed splits in the
    compressed band on top); RAM slots stay ``0 .. c-1`` with slot 0
    parking the active segment's base, exactly the disk-revolve layout.
    Executing it on a :class:`~repro.engine.tiered.TieredBackend` (or,
    for codec-armed objectives, a
    :class:`~repro.engine.compressed.CompressedBackend`) whose profiles
    match the objective reproduces the planned cost
    measurement-for-measurement.
    """
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if objective is None:
        objective = UnitCostObjective(spec)
    l = spec.length
    cost, splits, inner = _solve(spec, c, objective)
    label = f"{family}(c={c})"

    split_for = None
    if isinstance(inner, _InnerRevolve):
        if splits:
            bounds = [p for p, _ in splits]
            max_seg = max(
                e - b for b, e in zip(bounds, bounds[1:] + [l])
            )
        else:
            max_seg = l
        split_for = _SplitFn(max_seg, inner.c)

    actions: list[Action] = []
    if not splits:
        actions.append(snapshot(0))
        inner.emit(actions, 0, l, split_for)
        # The closed-form inner caps its pool at the useful slot count;
        # the segment-DP inner draws on the full budget (hetero_schedule's
        # convention), so the declared budget must match the emitter.
        c_eff = min(c, max(1, l - 1)) if split_for is not None else c
        return Schedule(strategy=label, length=l, slots=c_eff, actions=tuple(actions))

    positions = [p for p, _ in splits]
    seg_ends = positions[1:] + [l]
    # Lower DP tier codes to the shared slot alphabet: split i on tier t
    # lives in slot t·stride + i, pushed into the compressed band when
    # the planner chose the codec variant.
    paged_slots = [
        compressed_slot(tier_slot(_tier_store(t), i))
        if _tier_zipped(t)
        else tier_slot(_tier_store(t), i)
        for i, (_, t) in enumerate(splits)
    ]

    # Forward phase: page x_0 and every split point out.
    actions.append(snapshot(paged_slots[0]))
    for i in range(1, len(splits)):
        actions.append(advance(positions[i]))
        actions.append(snapshot(paged_slots[i]))

    # Backward phase, rightmost segment first; every segment but the
    # rightmost pays one paged read to bring its base back.  The base is
    # then parked in RAM slot 0 (free — same tier as the cursor) so the
    # in-RAM reversal can re-advance from it.
    for i in range(len(splits) - 1, -1, -1):
        base, end = positions[i], seg_ends[i]
        if i < len(splits) - 1:
            actions.append(restore(paged_slots[i]))
        actions.append(snapshot(0))
        inner.emit(actions, base, end, split_for)
        actions.append(free(0))
        actions.append(free(paged_slots[i]))

    return Schedule(
        strategy=label,
        length=l,
        slots=max(paged_slots) + 1,
        actions=tuple(actions),
    )
