"""First-class checkpoint strategies: one registry, one schedule cache.

The paper's core comparison (Section VI, Figure 1) is a comparison
*across strategies* — optimal Revolve against PyTorch's uniform
``checkpoint_sequential`` against Chen's √l heuristic — yet each caller
used to dispatch on free-form strings and re-derive the recompute factor
locally.  This module makes a strategy a first-class object:

* :class:`CheckpointStrategy` — the interface every family implements:
  ``build_schedule(l, c)``, ``extra_forwards(l, c)``, ``peak_slots(l, c)``,
  ``feasible(l, slot_budget)`` and ``rho(l, c, bwd_ratio)``;
* a process-wide registry (:func:`register`, :func:`get_strategy`,
  :func:`available_strategies`) holding the built-in families:
  ``revolve``, ``uniform``, ``sqrt``, ``store_all``, ``hetero``,
  ``budget``, ``disk_revolve``, the joint remat+paging planners
  (``joint_time``, ``joint_energy``) and the compressed variants
  (``revolve_zip``, ``joint_zip``);
* a memoized schedule/stats cache keyed by ``(strategy, l, c)`` whose
  hit/miss counts live on the shared :mod:`repro.obs` metrics registry
  (:func:`schedule_cache_info` stays as the reading facade), so
  experiment sweeps that revisit the same (l, c) points stop rebuilding
  identical schedules and re-running the virtual machine — and the
  counts show up in any exported trace.

Conventions shared by every adapter (all homogeneous-chain semantics):

* ``c`` is the checkpoint *slot budget* including the slot holding a
  segment's input (Revolve's convention), never a segment count;
* ``extra_forwards`` counts pure ADVANCE steps beyond the mandatory
  ``l − 1`` sweep — exactly what :meth:`RunStats.extra_forward_steps
  <repro.engine.stats.RunStats.extra_forward_steps>` measures, so
  predictions and measurements are directly comparable
  (property-tested in ``tests/test_ckpt_strategies.py``);
* ``rho`` prices that overhead with the paper's formula
  ``1 + extra / (l·(1 + bwd_ratio))`` via :func:`rho_from_extra` — the
  single home of the expression previously duplicated across the
  planner and the ablation;
* ``disk_revolve``'s ρ prices recompute only; its disk I/O is costed
  separately by :func:`~repro.checkpointing.joint.disk_revolve_cost`.

The base class backs ``extra_forwards``/``peak_slots`` by executing the
(cached) schedule on the virtual machine, so a new strategy is correct
the moment ``build_schedule`` works; families with closed forms override
them for O(1) planning.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import PlanningError, at_least
from ..obs import get_metrics, get_tracer
from .actions import Action, ActionKind, compressed_slot
from .chainspec import ChainSpec
from .dynprog import budget_schedule, hetero_schedule
from .joint import UnitCostObjective, disk_revolve_schedule, joint_schedule
from .revolve import extra_forwards as revolve_extra_forwards
from .revolve import revolve_schedule, store_all_schedule
from .schedule import Schedule
from .simulator import simulate
from .sqrt import sqrt_memory_slots, sqrt_schedule, sqrt_segments
from .uniform import (
    best_segments,
    uniform_extra_forwards_fused,
    uniform_memory_slots,
    uniform_schedule,
)

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports this package
    from ..engine.program import CompiledProgram
    from ..engine.stats import RunStats

__all__ = [
    "CheckpointStrategy",
    "register",
    "get_strategy",
    "available_strategies",
    "resolve_strategy_name",
    "rho_from_extra",
    "uniform_rho",
    "compressed_variant",
    "CacheInfo",
    "schedule_cache_info",
    "clear_schedule_cache",
]


# ---------------------------------------------------------------------------
# The ρ formula, in one place
# ---------------------------------------------------------------------------


def rho_from_extra(l: int, extra: float, bwd_ratio: float = 1.0) -> float:
    """Recompute factor ρ = 1 + extra / (l·(1 + bwd_ratio)).

    The paper's Section VI pricing of ``extra`` recomputed forward steps
    against the store-all baseline ``l·u_f + l·u_b`` with
    ``bwd_ratio = u_b/u_f``.
    """
    at_least("bwd_ratio", bwd_ratio, error=PlanningError)
    return 1.0 + extra / (l * (1.0 + bwd_ratio))


def uniform_rho(l: int, s: int, bwd_ratio: float = 1.0) -> float:
    """ρ of uniform segmentation at ``s`` segments (fused convention)."""
    return rho_from_extra(l, uniform_extra_forwards_fused(l, s), bwd_ratio)


# ---------------------------------------------------------------------------
# Memoized schedule / stats cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the process-wide schedule cache counters."""

    hits: int
    misses: int
    schedules: int
    stats: int


#: Shared metric names for the cache's hit/miss counters — the bespoke
#: integers the cache used to keep now live in the obs registry, where
#: exported traces and summaries pick them up alongside everything else.
CACHE_HITS = "ckpt.schedule_cache.hits"
CACHE_MISSES = "ckpt.schedule_cache.misses"


class _ScheduleCache:
    """Process-wide memo of built schedules and their simulator stats.

    Keys are ``(strategy_name, l, c)`` (strategies whose plan ignores
    ``c`` normalize it away in :meth:`CheckpointStrategy.cache_key`).
    Lookups are lock-protected; builds run outside the lock — builders
    are pure, so a racing double-build resolves via ``setdefault``.
    Hit/miss counts route to the :mod:`repro.obs` metrics registry
    (:data:`CACHE_HITS` / :data:`CACHE_MISSES`), plus a
    ``cache``-category trace event per lookup when tracing is enabled.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._schedules: dict[tuple, Schedule] = {}
        self._stats: dict[tuple, "RunStats"] = {}

    def _get(self, table: dict, key: tuple):
        with self._lock:
            value = table.get(key)
        hit = value is not None
        get_metrics().counter(CACHE_HITS if hit else CACHE_MISSES).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("hit" if hit else "miss", category="cache", key=str(key))
        return value

    def schedule(self, key: tuple, build) -> Schedule:
        found = self._get(self._schedules, key)
        if found is not None:
            return found
        built = build()
        with self._lock:
            return self._schedules.setdefault(key, built)

    def stats(self, key: tuple, build) -> "RunStats":
        found = self._get(self._stats, key)
        if found is not None:
            return found
        built = build()
        with self._lock:
            return self._stats.setdefault(key, built)

    def info(self) -> CacheInfo:
        m = get_metrics()
        with self._lock:
            return CacheInfo(
                hits=m.counter(CACHE_HITS).value,
                misses=m.counter(CACHE_MISSES).value,
                schedules=len(self._schedules),
                stats=len(self._stats),
            )

    def clear(self) -> None:
        with self._lock:
            self._schedules.clear()
            self._stats.clear()
        m = get_metrics()
        m.counter(CACHE_HITS).reset()
        m.counter(CACHE_MISSES).reset()


_CACHE = _ScheduleCache()


def schedule_cache_info() -> CacheInfo:
    """Hit/miss counters and entry counts of the shared schedule cache."""
    return _CACHE.info()


def clear_schedule_cache() -> None:
    """Drop every cached schedule and stats entry, reset the counters."""
    _CACHE.clear()


# ---------------------------------------------------------------------------
# The strategy interface
# ---------------------------------------------------------------------------


class CheckpointStrategy:
    """One checkpointing family, adapted to the common (l, c) surface.

    Subclasses must set :attr:`name` and implement
    :meth:`build_schedule`; everything else has simulator-backed
    defaults.  Instances are stateless — all memoization lives in the
    shared cache — so one registered instance serves the whole process.
    """

    #: Registry key; also the ``Schedule.strategy`` family label.
    name: str = "?"

    # -- required ---------------------------------------------------------
    def build_schedule(self, l: int, c: int) -> Schedule:
        """Construct a fresh executable schedule (uncached)."""
        raise NotImplementedError

    # -- caching surface --------------------------------------------------
    def cache_key(self, l: int, c: int) -> tuple:
        """Cache key; families whose plan ignores ``c`` drop it here."""
        return (self.name, l, c)

    def schedule(self, l: int, c: int) -> Schedule:
        """Memoized :meth:`build_schedule` through the shared cache."""
        return _CACHE.schedule(self.cache_key(l, c), lambda: self.build_schedule(l, c))

    def compiled(self, l: int, c: int) -> "CompiledProgram":
        """Flat-IR program of the cached schedule.

        This is the schedule's own :attr:`~.schedule.Schedule.program`
        memo, so each cached schedule compiles at most once per process.
        """
        return self.schedule(l, c).program

    def measured(self, l: int, c: int) -> "RunStats":
        """Memoized virtual-machine measurements of the cached schedule."""
        return _CACHE.stats(
            self.cache_key(l, c), lambda: simulate(self.schedule(l, c))
        )

    # -- predictions (override with closed forms where they exist) --------
    def extra_forwards(self, l: int, c: int) -> int:
        """Pure forward steps beyond the mandatory ``l − 1`` sweep."""
        return self.measured(l, c).extra_forward_steps()

    def peak_slots(self, l: int, c: int) -> int:
        """Maximum simultaneously occupied checkpoint slots."""
        return self.measured(l, c).peak_slots

    def feasible(self, l: int, slot_budget: int) -> bool:
        """Whether the family can reverse an ``l``-chain in the budget."""
        return slot_budget >= 1

    def rho(self, l: int, c: int, bwd_ratio: float = 1.0) -> float:
        """Recompute factor at slot budget ``c`` (the paper's ρ)."""
        return rho_from_extra(l, self.extra_forwards(l, c), bwd_ratio)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, CheckpointStrategy] = {}
_ALIASES: dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()


def register(
    strategy: CheckpointStrategy,
    *,
    aliases: tuple[str, ...] = (),
    overwrite: bool = False,
) -> CheckpointStrategy:
    """Add ``strategy`` to the registry under its name (plus aliases).

    Returns the strategy so the call can be used as a decorator-style
    one-liner.  Re-registering a taken name raises unless ``overwrite``.
    """
    name = strategy.name
    if not name or name == "?":
        raise PlanningError("strategy must define a name before registration")
    with _REGISTRY_LOCK:
        for key in (name, *aliases):
            taken = key in _REGISTRY or key in _ALIASES
            if taken and not overwrite:
                raise PlanningError(f"strategy name {key!r} is already registered")
        _REGISTRY[name] = strategy
        for alias in aliases:
            _ALIASES[alias] = name
    return strategy


def get_strategy(name: str) -> CheckpointStrategy:
    """Resolve a registered strategy by name or alias."""
    with _REGISTRY_LOCK:
        canonical = _ALIASES.get(name, name)
        strategy = _REGISTRY.get(canonical)
    if strategy is None:
        raise PlanningError(
            f"unknown strategy {name!r}; available: {', '.join(available_strategies())}"
        )
    return strategy


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names, in registration order."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY)


def resolve_strategy_name(label: str) -> str:
    """Canonical family name for a schedule's strategy label.

    Labels may carry parameters — ``"uniform(s=4)"``,
    ``"disk_revolve(c_m=3)"`` — and legacy spellings (``"hetero_dp"``);
    the part before ``(`` is resolved through the registry.  Raises
    :class:`~repro.errors.PlanningError` for unknown families.
    """
    return get_strategy(label.split("(", 1)[0]).name


# ---------------------------------------------------------------------------
# Built-in family adapters
# ---------------------------------------------------------------------------


class RevolveStrategy(CheckpointStrategy):
    """Optimal binomial checkpointing (Griewank & Walther Alg. 799)."""

    name = "revolve"

    def build_schedule(self, l: int, c: int) -> Schedule:
        return revolve_schedule(l, c)

    def extra_forwards(self, l: int, c: int) -> int:
        return revolve_extra_forwards(l, c)


class UniformStrategy(CheckpointStrategy):
    """PyTorch ``checkpoint_sequential``: best segmentation in budget."""

    name = "uniform"

    def build_schedule(self, l: int, c: int) -> Schedule:
        return uniform_schedule(l, best_segments(l, slot_budget=c))

    def extra_forwards(self, l: int, c: int) -> int:
        return uniform_extra_forwards_fused(l, best_segments(l, slot_budget=c))

    def peak_slots(self, l: int, c: int) -> int:
        return uniform_memory_slots(l, best_segments(l, slot_budget=c))

    def feasible(self, l: int, slot_budget: int) -> bool:
        try:
            best_segments(l, slot_budget=slot_budget)
        except PlanningError:
            return False
        return True


class SqrtStrategy(CheckpointStrategy):
    """Chen's √l heuristic — a fixed segmentation, so ``c`` is ignored."""

    name = "sqrt"

    def cache_key(self, l: int, c: int) -> tuple:
        return (self.name, l)

    def build_schedule(self, l: int, c: int) -> Schedule:
        return sqrt_schedule(l)

    def extra_forwards(self, l: int, c: int) -> int:
        return uniform_extra_forwards_fused(l, sqrt_segments(l))

    def peak_slots(self, l: int, c: int) -> int:
        return sqrt_memory_slots(l)

    def feasible(self, l: int, slot_budget: int) -> bool:
        return sqrt_memory_slots(l) <= slot_budget


class StoreAllStrategy(CheckpointStrategy):
    """No recomputation: snapshot every prefix activation."""

    name = "store_all"

    def cache_key(self, l: int, c: int) -> tuple:
        return (self.name, l)

    def build_schedule(self, l: int, c: int) -> Schedule:
        return store_all_schedule(l)

    def extra_forwards(self, l: int, c: int) -> int:
        return 0

    def peak_slots(self, l: int, c: int) -> int:
        return l

    def feasible(self, l: int, slot_budget: int) -> bool:
        # The c+1'th activation lives in the cursor, so l−1 slots suffice.
        return slot_budget >= max(1, l - 1)


class HeteroStrategy(CheckpointStrategy):
    """Exact segment DP over per-step costs, run on the unit chain.

    On homogeneous chains the DP provably matches Revolve's ``P(l, c)``
    (property-tested in ``tests/test_ckpt_dynprog.py``), so planning
    queries use the closed form; only ``build_schedule`` pays the
    O(l³·c) DP.
    """

    name = "hetero"

    def build_schedule(self, l: int, c: int) -> Schedule:
        return hetero_schedule(ChainSpec.homogeneous(l), c)

    def extra_forwards(self, l: int, c: int) -> int:
        return revolve_extra_forwards(l, c)


class BudgetStrategy(CheckpointStrategy):
    """Exact byte-budget DP, run on the unit chain at ``c`` size units.

    With unit activation sizes a budget of ``c`` units (``x_0`` charged
    first, ``c − 1`` free) is exactly the slot-count DP, hence Revolve's
    closed form prices it.
    """

    name = "budget"

    def build_schedule(self, l: int, c: int) -> Schedule:
        return budget_schedule(ChainSpec.homogeneous(l), budget_bytes=c)

    def extra_forwards(self, l: int, c: int) -> int:
        return revolve_extra_forwards(l, c)


class DiskRevolveStrategy(CheckpointStrategy):
    """Two-level (memory + disk) checkpointing with ``c`` memory slots.

    ``peak_slots`` counts both tiers; ``rho`` prices recompute only —
    disk I/O is costed by :func:`~.joint.disk_revolve_cost` (the joint
    DP at unit prices, whose schedules this family emits).
    """

    name = "disk_revolve"

    def __init__(self, write_cost: float = 1.0, read_cost: float = 1.0) -> None:
        self.write_cost = write_cost
        self.read_cost = read_cost

    def build_schedule(self, l: int, c: int) -> Schedule:
        return disk_revolve_schedule(l, c, self.write_cost, self.read_cost)


_SLOT_KINDS = (ActionKind.SNAPSHOT, ActionKind.RESTORE, ActionKind.FREE)


def compressed_variant(base: Schedule, family: str) -> Schedule:
    """Rewrite every slot-touching action into the compressed band.

    The action *structure* is untouched — same recompute pattern, same
    peak slot count — only the how-stored flag changes, so the variant
    inherits the base family's closed forms.  The declared budget is
    inflated past the banded ids, the same convention ``disk_revolve``
    and ``joint`` use for their tier bands.
    """
    actions = tuple(
        Action(a.kind, compressed_slot(a.arg)) if a.kind in _SLOT_KINDS else a
        for a in base.actions
    )
    max_slot = max(
        (a.arg for a in actions if a.kind in _SLOT_KINDS), default=-1
    )
    return Schedule(
        strategy=family,
        length=base.length,
        slots=max(base.slots, max_slot + 1),
        actions=actions,
    )


class RevolveZipStrategy(CheckpointStrategy):
    """Revolve with every checkpoint stored through the codec.

    Identical action structure to ``revolve`` — same binomial recompute
    pattern, same ``extra_forwards`` closed form — but every SNAPSHOT
    lands in the compressed slot band, so a
    :class:`~repro.engine.compressed.CompressedBackend` holds
    ``ratio``-scaled bytes per slot (peak-memory reduction at codec
    cost) while plain backends execute it as ordinary Revolve.  Under
    the identity codec the measured bytes collapse to ``revolve``'s.
    """

    name = "revolve_zip"

    def build_schedule(self, l: int, c: int) -> Schedule:
        return compressed_variant(revolve_schedule(l, c), self.name)

    def extra_forwards(self, l: int, c: int) -> int:
        return revolve_extra_forwards(l, c)


class JointStrategy(CheckpointStrategy):
    """Joint rematerialization+paging DP over the tiered action alphabet.

    Per split point the planner chooses recompute-vs-page-to-tier under
    an abstract per-operation paging price in forward units (the
    registry operates on homogeneous unit chains, so profile-priced
    objectives live behind the spec-level API —
    :func:`~repro.checkpointing.joint.joint_schedule` with a
    :class:`~repro.checkpointing.joint.TimeObjective` /
    :class:`~repro.checkpointing.joint.EnergyObjective`).  ``joint_time``
    prices a paged op at one forward unit — ``disk_revolve``'s
    convention, which it provably weakly dominates; ``joint_energy`` at
    a quarter unit (storage I/O holds only the ~2 W rail while a busy
    core draws ~4x that, so equal-duration transfers cost a quarter of
    the energy — the duty-cycle framing of
    :class:`~repro.edge.power.EnergyModel`), so it pages more eagerly.

    ``codec_name`` (a key of
    :func:`~repro.edge.storage.compression_models`) arms the objective
    with a codec, adding page-compressed as a third action per split:
    ``joint_zip`` uses BitTrain's sparse-bitmap default, so a compressed
    page moves ``ratio`` of the bytes and the plan weakly dominates
    ``joint_time``; its compressed splits use the compressed slot band
    and execute with codec-priced transfers on a
    :class:`~repro.engine.compressed.CompressedBackend`.

    Like ``disk_revolve``, ``rho`` prices recompute only; paging I/O is
    costed by the objective.
    """

    def __init__(
        self,
        name: str,
        write_cost: float = 1.0,
        read_cost: float = 1.0,
        codec_name: str | None = None,
    ) -> None:
        self.name = name
        self.write_cost = write_cost
        self.read_cost = read_cost
        self.codec_name = codec_name

    def build_schedule(self, l: int, c: int) -> Schedule:
        codec = None
        if self.codec_name is not None:
            # Lazy: repro.edge imports this package (layering, not a cycle).
            from ..edge.storage import compression_models

            codec = compression_models()[self.codec_name]
        spec = ChainSpec.homogeneous(l)
        objective = UnitCostObjective(
            spec, self.write_cost, self.read_cost, codec=codec
        )
        return joint_schedule(spec, c, objective, family=self.name)


# Registration order is the presentation order everywhere (ablation
# columns, CLI listing) and keeps compare_strategies' seed key order:
# revolve, uniform, sqrt, store_all first.
register(RevolveStrategy())
register(UniformStrategy())
register(SqrtStrategy())
register(StoreAllStrategy())
register(HeteroStrategy(), aliases=("hetero_dp",))
register(BudgetStrategy(), aliases=("budget_dp",))
register(DiskRevolveStrategy())
register(JointStrategy("joint_time"), aliases=("joint",))
register(JointStrategy("joint_energy", write_cost=0.25, read_cost=0.25))
register(RevolveZipStrategy())
register(JointStrategy("joint_zip", codec_name="bittrain"))
