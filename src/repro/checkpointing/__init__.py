"""Checkpointing strategies, schedules and planning — the core library.

The package exposes:

* :class:`ChainSpec` — sizes/costs of a reversible chain;
* an action IR (:mod:`~repro.checkpointing.actions`) and
  :class:`Schedule` container;
* strategies: Revolve (optimal binomial), uniform
  (``checkpoint_sequential``), √l (Chen), exact heterogeneous DPs, and
  the joint rematerialization+paging planner over the tier-aware slot
  alphabet (:mod:`~repro.checkpointing.joint`) — all behind one registry
  (:func:`get_strategy`, :func:`available_strategies`) with a memoized
  schedule cache;
* :func:`simulate`, which validates any schedule and measures its cost
  and peak memory on the engine's virtual machine (returning
  :class:`repro.engine.RunStats`);
* the planner mapping recompute factor ρ ↔ slots ↔ bytes (Figure 1) and
  choosing strategies for device budgets.
"""

from .actions import (
    COMPRESS_SLOT_BASE,
    DISK_SLOT_BASE,
    TIER_DISK,
    TIER_RAM,
    TIER_SLOT_STRIDE,
    Action,
    ActionKind,
    adjoint,
    advance,
    compressed_slot,
    free,
    is_compressed_slot,
    restore,
    snapshot,
    storage_slot,
    tier_of_slot,
    tier_slot,
)
from .chainspec import ChainSpec
from .schedule import Schedule
from .serialize import FORMAT_VERSION, schedule_from_json, schedule_to_json
from .timeline import TimelinePoint, memory_timeline, timeline_ascii
from .simulator import simulate, validate
from .revolve import (
    beta,
    extra_forwards,
    min_slots_for_extra,
    opt_forwards,
    opt_forwards_dp,
    repetition_number,
    revolve_schedule,
    store_all_schedule,
)
from .uniform import (
    best_segments,
    segment_lengths,
    uniform_extra_forwards,
    uniform_extra_forwards_fused,
    uniform_lower_bound,
    uniform_memory_slots,
    uniform_schedule,
)
from .sqrt import sqrt_memory_slots, sqrt_schedule, sqrt_segments
from .dynprog import (
    budget_schedule,
    hetero_schedule,
    opt_forwards_budget,
    opt_forwards_hetero,
    quantize_sizes,
)
from .analysis import (
    ParetoPoint,
    pareto_frontier,
)
from .joint import (
    EnergyObjective,
    JointObjective,
    JointPlan,
    TimeObjective,
    UnitCostObjective,
    disk_revolve_cost,
    disk_revolve_schedule,
    disk_revolve_splits,
    joint_cost,
    joint_plan,
    joint_schedule,
)
from .strategies import (
    CacheInfo,
    CheckpointStrategy,
    available_strategies,
    clear_schedule_cache,
    compressed_variant,
    get_strategy,
    register,
    resolve_strategy_name,
    rho_from_extra,
    schedule_cache_info,
    uniform_rho,
)
from .planner import (
    FRONTIER_FAMILIES,
    FrontierPoint,
    PlanPoint,
    TrainingPlan,
    compare_strategies,
    max_slots_in_budget,
    measure_frontier,
    memory_for_slots,
    plan_training,
    rho_for_budget,
    rho_for_slots,
    slots_for_rho,
    slots_for_rhos,
)

__all__ = [
    "Action",
    "ActionKind",
    "advance",
    "snapshot",
    "restore",
    "free",
    "adjoint",
    "TIER_SLOT_STRIDE",
    "TIER_RAM",
    "TIER_DISK",
    "tier_of_slot",
    "tier_slot",
    "COMPRESS_SLOT_BASE",
    "is_compressed_slot",
    "compressed_slot",
    "storage_slot",
    "ChainSpec",
    "Schedule",
    "FORMAT_VERSION",
    "schedule_to_json",
    "schedule_from_json",
    "TimelinePoint",
    "memory_timeline",
    "timeline_ascii",
    "simulate",
    "validate",
    "beta",
    "repetition_number",
    "opt_forwards",
    "opt_forwards_dp",
    "extra_forwards",
    "min_slots_for_extra",
    "revolve_schedule",
    "store_all_schedule",
    "segment_lengths",
    "uniform_memory_slots",
    "uniform_extra_forwards",
    "uniform_extra_forwards_fused",
    "uniform_lower_bound",
    "best_segments",
    "uniform_schedule",
    "sqrt_segments",
    "sqrt_memory_slots",
    "sqrt_schedule",
    "opt_forwards_hetero",
    "hetero_schedule",
    "quantize_sizes",
    "opt_forwards_budget",
    "budget_schedule",
    "DISK_SLOT_BASE",
    "disk_revolve_cost",
    "disk_revolve_splits",
    "disk_revolve_schedule",
    "JointObjective",
    "UnitCostObjective",
    "TimeObjective",
    "EnergyObjective",
    "JointPlan",
    "joint_plan",
    "joint_cost",
    "joint_schedule",
    "CheckpointStrategy",
    "register",
    "get_strategy",
    "available_strategies",
    "compressed_variant",
    "resolve_strategy_name",
    "rho_from_extra",
    "uniform_rho",
    "CacheInfo",
    "schedule_cache_info",
    "clear_schedule_cache",
    "ParetoPoint",
    "pareto_frontier",
    "PlanPoint",
    "TrainingPlan",
    "FRONTIER_FAMILIES",
    "FrontierPoint",
    "measure_frontier",
    "rho_for_slots",
    "slots_for_rho",
    "slots_for_rhos",
    "memory_for_slots",
    "max_slots_in_budget",
    "rho_for_budget",
    "plan_training",
    "compare_strategies",
]
