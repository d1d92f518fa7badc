"""Edge training-time simulation: efficiency, recompute, duty cycle.

Combines three effects the paper discusses in Sections III and VI:

1. **Checkpointing recompute** — the memory planner picks the slot count
   that fits the device, costing recompute factor ρ.
2. **Batch efficiency** — small batches underutilize vector hardware
   (:func:`batch_efficiency`); the paper notes that "the time to process
   8 times a batch size of 1 is expected to be much larger than the time
   to process a batch size of 8", which is why trading memory (via
   checkpointing) for a larger batch can *reduce* total epoch time even
   at ρ > 1.  :func:`sweep_batch_sizes` quantifies exactly that.
3. **Duty cycle** — "training ... can be scheduled to run only when the
   node's CPU does not have a higher priority task" (Section III):
   :class:`DutyCycleSimulator` runs a discrete-event preemption model
   with Poisson-arriving priority tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, MemoryBudgetError, at_least, positive
from ..checkpointing.planner import TrainingPlan, plan_training
from ..obs import get_metrics, get_tracer
from .device import Device
from .workload import TrainingWorkload

__all__ = [
    "batch_efficiency",
    "EpochEstimate",
    "estimate_epoch",
    "sweep_batch_sizes",
    "DutyCycleSimulator",
    "DutyCycleResult",
]


def batch_efficiency(batch_size: int, full_at: int = 32, floor: float = 0.15) -> float:
    """Fraction of peak throughput achieved at a given batch size.

    A saturating square-root curve: tiny batches run near ``floor`` of
    peak (kernel launch/vectorization overheads dominate), saturating at
    ``full_at``.  Chosen for its shape, not its constants — benches sweep
    them.
    """
    at_least("batch_size", batch_size, 1)
    if not 0 < floor <= 1:
        raise ConfigError(f"floor must be in (0, 1], got {floor}")
    frac = min(1.0, math.sqrt(batch_size / full_at))
    return floor + (1.0 - floor) * frac


@dataclass(frozen=True)
class EpochEstimate:
    """Time and memory outcome for one epoch on a device."""

    model: str
    device: str
    batch_size: int
    plan: TrainingPlan
    efficiency: float
    step_seconds: float
    batches: int

    @property
    def rho(self) -> float:
        """Recompute factor of the plan (≥ 1; never a silent 0/0)."""
        return at_least("plan rho", self.plan.rho, 1.0)

    @property
    def epoch_seconds(self) -> float:
        return self.step_seconds * self.batches

    @property
    def samples_per_second(self) -> float:
        """Throughput; ``inf`` for a (degenerate) zero-time step."""
        if at_least("step_seconds", self.step_seconds) == 0:
            return float("inf")
        return self.batch_size / self.step_seconds


def estimate_epoch(
    workload: TrainingWorkload,
    device: Device,
    full_at: int = 32,
    floor: float = 0.15,
) -> EpochEstimate:
    """Plan memory, then price one epoch (compute time, no duty cycle).

    Raises :class:`~repro.errors.MemoryBudgetError` when the workload
    cannot fit the device at this batch size even with ρ-unbounded
    checkpointing.
    """
    plan = plan_training(
        l=workload.chain_length,
        fixed_bytes=workload.fixed_bytes,
        slot_bytes=workload.slot_bytes,
        budget_bytes=device.mem_bytes,
        bwd_ratio=workload.bwd_ratio,
        model=workload.model,
    )
    eff = batch_efficiency(workload.batch_size, full_at=full_at, floor=floor)
    positive(f"device {device.name!r} flops_per_s", device.flops_per_s)
    step_seconds = workload.step_flops * plan.rho / (device.flops_per_s * eff)
    return EpochEstimate(
        model=workload.model,
        device=device.name,
        batch_size=workload.batch_size,
        plan=plan,
        efficiency=eff,
        step_seconds=step_seconds,
        batches=workload.batches_per_epoch,
    )


def sweep_batch_sizes(
    workload: TrainingWorkload,
    device: Device,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    full_at: int = 32,
    floor: float = 0.15,
) -> list[EpochEstimate]:
    """Epoch estimates across batch sizes (infeasible sizes skipped).

    The paper's Section VI point falls out of this sweep: without
    checkpointing only tiny batches fit and the epoch crawls at low
    efficiency; with Revolve, batch 8+ fits at ρ ≈ 1.5 and the epoch is
    *faster* despite the recomputation.
    """
    out = []
    for k in batch_sizes:
        try:
            out.append(estimate_epoch(workload.with_batch(k), device, full_at, floor))
        except MemoryBudgetError:
            continue
    return out


@dataclass(frozen=True)
class DutyCycleResult:
    """Outcome of the preemption simulation."""

    compute_seconds: float
    wall_seconds: float
    busy_seconds: float
    preemptions: int

    @property
    def achieved_idle_fraction(self) -> float:
        """``compute / wall``; 1.0 for the empty run, ``inf``/``ValueError``
        for denominators the simulation cannot produce (hand-built
        results with zero or negative wall time)."""
        if at_least("wall_seconds", self.wall_seconds) == 0:
            return 1.0 if self.compute_seconds == 0 else float("inf")
        return self.compute_seconds / self.wall_seconds


class DutyCycleSimulator:
    """Discrete-event model of training preempted by priority tasks.

    Higher-priority payloads (inference jobs, sensor handling) arrive as
    a Poisson process with exponential service times; training runs only
    in the gaps (Section III's scheduling policy).  The long-run idle
    fraction is ``1/(1 + rate·mean_duration)``; the simulation adds the
    realistic variance around it.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        arrival_rate_per_hour: float = 6.0,
        mean_task_seconds: float = 300.0,
    ) -> None:
        self.rng = rng
        self.arrival_rate = at_least("arrival_rate_per_hour", arrival_rate_per_hour) / 3600.0
        self.mean_task_seconds = at_least("mean_task_seconds", mean_task_seconds)

    @property
    def expected_idle_fraction(self) -> float:
        load = self.arrival_rate * self.mean_task_seconds
        return 1.0 / (1.0 + load)

    def run(self, compute_seconds: float) -> DutyCycleResult:
        """Wall-clock time to accumulate ``compute_seconds`` of training."""
        at_least("compute_seconds", compute_seconds)
        with get_tracer().span(
            "duty_cycle", category="edge", compute_seconds=compute_seconds
        ) as span:
            if self.arrival_rate == 0 or self.mean_task_seconds == 0:
                result = DutyCycleResult(compute_seconds, compute_seconds, 0.0, 0)
            else:
                done = 0.0
                wall = 0.0
                busy = 0.0
                preemptions = 0
                while done < compute_seconds:
                    gap = self.rng.exponential(1.0 / self.arrival_rate)
                    work = min(gap, compute_seconds - done)
                    done += work
                    wall += work
                    if done >= compute_seconds:
                        break
                    task = self.rng.exponential(self.mean_task_seconds)
                    wall += task
                    busy += task
                    preemptions += 1
                result = DutyCycleResult(
                    compute_seconds=compute_seconds,
                    wall_seconds=wall,
                    busy_seconds=busy,
                    preemptions=preemptions,
                )
            span.set_tag("wall_seconds", result.wall_seconds)
            span.set_tag("preemptions", result.preemptions)
        m = get_metrics()
        m.counter("edge.duty_cycle.preemptions").inc(result.preemptions)
        m.histogram("edge.duty_cycle.idle_fraction").observe(
            result.achieved_idle_fraction
        )
        return result
