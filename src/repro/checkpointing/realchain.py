"""Planning on real (heterogeneous) block chains, interiors included.

The Figure 1 analysis runs on the homogenized ``LinearResNet``.  A real
linearized ResNet (:func:`repro.graph.chain.linearize`) has *unequal*
boundary activations and, inside each block, interior activations that
are live only while that block's adjoint runs.  The true peak of a
checkpointed execution is therefore

    peak(plan) = max over time [ snapshot bytes + working set ]
    working set of block i  =  act(x_{i-1}) + interior_i + act(x_i)

This module plans against that model: the byte budget handed to the
exact heterogeneous DP (:func:`~repro.checkpointing.dynprog.budget_schedule`)
is the device budget minus the worst block working set, which makes the
resulting plan *conservative* — its simulated snapshot peak plus any
block's working set never exceeds the device budget (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MemoryBudgetError, at_least
from ..graph import SegmentChain
from .chainspec import ChainSpec
from .dynprog import budget_schedule, opt_forwards_budget
from .schedule import Schedule
from .simulator import simulate

__all__ = ["RealChainPlan", "working_set_bytes", "plan_real_chain"]


def working_set_bytes(chain: SegmentChain, batch_size: int = 1) -> int:
    """Worst per-block working set: input + interior + output bytes."""
    acts = [chain.input_bytes] + [s.act_bytes for s in chain.stages]
    worst = 0
    for i, stage in enumerate(chain.stages):
        worst = max(worst, acts[i] + stage.interior_bytes + stage.act_bytes)
    return worst * batch_size


@dataclass(frozen=True)
class RealChainPlan:
    """A deployable plan for a real block chain."""

    model: str
    batch_size: int
    budget_bytes: int
    fixed_bytes: int
    working_set: int
    snapshot_budget: int
    schedule: Schedule
    extra_forward_cost: float
    baseline_fwd_cost: float
    #: simulated peak snapshot bytes (activations only, batch-scaled)
    peak_snapshot_bytes: int

    @property
    def peak_bytes(self) -> int:
        """Conservative total peak: fixed + snapshots + working set."""
        return self.fixed_bytes + self.peak_snapshot_bytes + self.working_set

    @property
    def fits(self) -> bool:
        return self.peak_bytes <= self.budget_bytes

    @property
    def rho(self) -> float:
        """Recompute factor under fwd-cost-proportional backward (r=1)."""
        if self.baseline_fwd_cost <= 0:
            return 1.0
        return 1.0 + self.extra_forward_cost / (2.0 * self.baseline_fwd_cost)


def plan_real_chain(
    chain: SegmentChain,
    budget_bytes: int,
    fixed_bytes: int | None = None,
    batch_size: int = 1,
    levels: int = 64,
) -> RealChainPlan:
    """Plan optimal checkpointing for a linearized DAG under a budget.

    ``fixed_bytes`` defaults to the 4-copy weight convention on the
    chain's weights.  Raises :class:`~repro.errors.MemoryBudgetError`
    when the budget cannot hold fixed cost + the worst block working set
    + the chain input.
    """
    at_least("batch_size", batch_size, 1)
    fixed = 4 * chain.weight_bytes + chain.buffer_bytes if fixed_bytes is None else fixed_bytes
    ws = working_set_bytes(chain, batch_size)
    snapshot_budget = budget_bytes - fixed - ws
    spec_acts = tuple(b * batch_size for b in ((chain.input_bytes,) + tuple(s.act_bytes for s in chain.stages)))
    spec = ChainSpec(
        name=chain.name,
        act_bytes=spec_acts,
        fwd_cost=tuple(float(s.flops or 1) for s in chain.stages),
        bwd_cost=tuple(float(s.flops or 1) for s in chain.stages),
    )
    if snapshot_budget < spec_acts[0]:
        raise MemoryBudgetError(
            f"{chain.name}: budget {budget_bytes} B cannot hold fixed cost "
            f"({fixed} B) + working set ({ws} B) + chain input"
        )
    schedule = budget_schedule(spec, snapshot_budget, levels=levels)
    cost, _ = opt_forwards_budget(spec, snapshot_budget, levels=levels)
    stats = simulate(schedule, spec)
    return RealChainPlan(
        model=chain.name,
        batch_size=batch_size,
        budget_bytes=budget_bytes,
        fixed_bytes=fixed,
        working_set=ws,
        snapshot_budget=snapshot_budget,
        schedule=schedule,
        extra_forward_cost=stats.extra_forward_cost(spec),
        baseline_fwd_cost=spec.total_fwd_cost,
        peak_snapshot_bytes=stats.peak_slot_bytes,
    )
