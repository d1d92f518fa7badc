"""In-situ training campaigns: from first crossing to adapted model.

Ties Sections II, III and VI together over wall-clock time.  A node
harvests auto-labelled images as subjects cross its view (Poisson per
day), stores them on flash, and trains the student whenever the payload
CPU is idle.  Student quality follows a saturating learning curve in the
harvested-set size; the campaign ends when the target accuracy is
reached.  "The training of the student model is not time critical, it
can be scheduled to run only when the node's CPU does not have a higher
priority task" — this simulator quantifies what that policy costs in
calendar time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, PlanningError, at_least, positive
from .device import Device
from .simulator import DutyCycleSimulator, estimate_epoch
from .storage import ImageStore
from .workload import TrainingWorkload

__all__ = ["LearningCurve", "CampaignConfig", "CampaignDay", "CampaignResult", "run_campaign"]


@dataclass(frozen=True)
class LearningCurve:
    """Accuracy as a saturating function of training-set size.

    ``acc(n) = ceiling − (ceiling − floor) · exp(−n / scale)`` — the
    standard data-scaling ansatz; parameters are per-deployment.
    """

    floor: float = 0.35
    ceiling: float = 0.97
    scale: float = 2_000.0

    def __post_init__(self) -> None:
        if not 0 <= self.floor < self.ceiling <= 1:
            raise PlanningError("need 0 <= floor < ceiling <= 1")
        positive("scale", self.scale, error=PlanningError)

    def accuracy(self, n_images):
        """Accuracy after ``n_images`` — scalar in, scalar out; array in,
        array out.

        The scalar path is the historical one (``math.exp``) and is kept
        bit-for-bit unchanged; the ndarray path evaluates the same
        closed form with ``np.exp`` so a whole fleet's accuracies cost
        one vectorized expression instead of a per-node Python loop.
        The two may differ in the last ulp (libm vs SIMD exp), which is
        why both fleet engines use the *array* path throughout.
        """
        if isinstance(n_images, np.ndarray):
            if n_images.size and float(n_images.min()) < 0:
                raise ConfigError("image count must be non-negative")
            return self.ceiling - (self.ceiling - self.floor) * np.exp(-n_images / self.scale)
        at_least("n_images", n_images)
        return self.ceiling - (self.ceiling - self.floor) * math.exp(-n_images / self.scale)

    def images_for(self, target: float) -> int:
        """Smallest n with accuracy(n) >= target (inverse of the curve)."""
        if not self.floor <= target < self.ceiling:
            raise PlanningError(
                f"target {target} outside achievable range "
                f"[{self.floor}, {self.ceiling})"
            )
        return max(0, math.ceil(-self.scale * math.log((self.ceiling - target) / (self.ceiling - self.floor))))


@dataclass(frozen=True)
class CampaignConfig:
    """One deployment's parameters."""

    workload: TrainingWorkload  # per-epoch training cost descriptor
    target_accuracy: float = 0.9
    crossings_per_day: float = 60.0
    images_per_crossing: float = 18.0
    labelled_fraction: float = 0.9  # tracks that clear the confidence gate
    curve: LearningCurve = field(default_factory=LearningCurve)
    epochs_per_session: int = 1
    max_days: int = 365
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("target_accuracy", "labelled_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name, lo in (("crossings_per_day", 0), ("images_per_crossing", 0),
                         ("epochs_per_session", 1), ("max_days", 1), ("seed", 0)):
            at_least(name, getattr(self, name), lo)


@dataclass(frozen=True)
class CampaignDay:
    """One simulated day."""

    day: int
    harvested_total: int
    accuracy: float
    train_compute_s: float
    train_wall_s: float


@dataclass(frozen=True)
class CampaignResult:
    """Full campaign trace plus the headline outcomes."""

    days: tuple[CampaignDay, ...]
    reached_target: bool
    target_day: int | None
    storage_bytes: int
    storage_ok: bool

    @property
    def final_accuracy(self) -> float:
        return self.days[-1].accuracy if self.days else 0.0

    @property
    def total_train_hours(self) -> float:
        return sum(d.train_wall_s for d in self.days) / 3600.0


def run_campaign(cfg: CampaignConfig, device: Device) -> CampaignResult:
    """Simulate day-by-day harvesting + idle-time training.

    Raises :class:`~repro.errors.MemoryBudgetError` if the workload can
    never fit the device even fully checkpointed.
    """
    rng = np.random.default_rng(cfg.seed)
    duty = DutyCycleSimulator(
        rng,
        arrival_rate_per_hour=(1.0 - device.idle_fraction) / device.idle_fraction * 12.0,
        mean_task_seconds=300.0,
    )
    store = ImageStore(capacity_bytes=device.storage_bytes)

    harvested = 0
    days: list[CampaignDay] = []
    target_day: int | None = None
    for day in range(1, cfg.max_days + 1):
        crossings = rng.poisson(cfg.crossings_per_day)
        labelled = rng.binomial(crossings, cfg.labelled_fraction) if crossings else 0
        harvested += int(round(labelled * cfg.images_per_crossing))
        harvested = min(harvested, store.max_images)  # flash-bounded

        # Train on the accumulated set during idle windows.
        workload = TrainingWorkload(
            model=cfg.workload.model,
            chain_length=cfg.workload.chain_length,
            slot_act_bytes_per_sample=cfg.workload.slot_act_bytes_per_sample,
            fixed_bytes=cfg.workload.fixed_bytes,
            flops_per_sample=cfg.workload.flops_per_sample,
            n_images=max(1, harvested),
            epochs=cfg.epochs_per_session,
            batch_size=cfg.workload.batch_size,
            bwd_ratio=cfg.workload.bwd_ratio,
        )
        est = estimate_epoch(workload, device)  # raises MemoryBudgetError if hopeless
        compute_s = est.epoch_seconds * cfg.epochs_per_session
        wall = duty.run(compute_s)

        acc = cfg.curve.accuracy(harvested)
        days.append(
            CampaignDay(
                day=day,
                harvested_total=harvested,
                accuracy=acc,
                train_compute_s=compute_s,
                train_wall_s=wall.wall_seconds,
            )
        )
        if acc >= cfg.target_accuracy and target_day is None:
            target_day = day
            break

    return CampaignResult(
        days=tuple(days),
        reached_target=target_day is not None,
        target_day=target_day,
        storage_bytes=store.dataset_bytes(harvested),
        storage_ok=store.fits(harvested),
    )
