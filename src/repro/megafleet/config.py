"""Heterogeneous fleet description: cohorts of devices, not one scalar.

perf4sight's core observation (PAPERS.md) is that edge fleets are not
homogeneous — model, storage medium, duty cycle and failure regime all
vary by hardware generation and deployment site.  A
:class:`DeviceCohort` captures one such slice (e.g. "40% of the fleet
are Pi-3-class nodes on SD cards with a 45-day MTBF, training
ResNet-34"), and a :class:`MegaFleetConfig` is an ordered tuple of
cohorts plus the fleet-wide campaign knobs (horizon, learning curve,
federation policy, seed).

Cohort *names* are load-bearing: the counter-based RNG keys every
device by ``(seed, cohort name, ordinal in cohort)``, so names must be
unique and renaming a cohort reseeds it.  Reordering cohorts does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanningError, at_least, positive
from ..edge.campaign import LearningCurve
from ..edge.storage import EMMC, SD_CARD, StorageProfile

__all__ = [
    "DeviceCohort",
    "MegaFleetConfig",
    "STORAGE_PROFILES",
    "model_bytes",
    "preset_config",
]

#: storage media a cohort can snapshot to, by profile name
STORAGE_PROFILES: dict[str, StorageProfile] = {
    SD_CARD.name: SD_CARD,
    EMMC.name: EMMC,
}

#: ResNet-zoo depths a cohort can train (federation payload sizing)
MODEL_DEPTHS = (18, 34, 50, 101, 152)

_MODEL_BYTES_CACHE: dict[int, int] = {}


def model_bytes(depth: int) -> int:
    """Federated-model payload bytes for one ResNet-zoo depth.

    fp32 trainable parameters of the real zoo graph (built once per
    depth and cached) — the same model the memory/checkpointing stack
    reasons about, so radio accounting and Table-I sizing agree.
    """
    if depth not in MODEL_DEPTHS:
        raise PlanningError(f"model depth {depth} not in zoo {MODEL_DEPTHS}")
    cached = _MODEL_BYTES_CACHE.get(depth)
    if cached is None:
        from ..zoo import build_resnet

        cached = _MODEL_BYTES_CACHE[depth] = int(
            build_resnet(depth, image_size=64).trainable_bytes
        )
    return cached


@dataclass(frozen=True)
class DeviceCohort:
    """One homogeneous slice of the fleet."""

    name: str
    count: int
    #: ResNet-zoo depth this cohort trains (federation payload size)
    model_depth: int = 34
    #: snapshot medium, by :data:`STORAGE_PROFILES` name
    storage: str = "sd-card"
    crossings_per_day_mean: float = 60.0
    images_per_crossing: float = 18.0
    #: Erlang shape of per-device traffic heterogeneity (integer Gamma)
    traffic_shape: int = 2
    #: fraction of each day the node is powered and harvesting
    duty_cycle: float = 1.0
    #: mean days between crashes per device; 0 = never crashes
    mtbf_days: float = 0.0
    #: days between durable on-device snapshots
    snapshot_period_days: int = 1
    #: mean extra down days after a crash (geometric, as in the legacy
    #: fleet: the rejoin probability each day is min(1, 1/mean))
    outage_days_mean: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanningError("cohort needs a name (it seeds the RNG)")
        who = f"cohort {self.name!r}:"
        at_least(f"{who} count", self.count, 1, error=PlanningError)
        if self.model_depth not in MODEL_DEPTHS:
            raise PlanningError(
                f"cohort {self.name!r}: model depth {self.model_depth} "
                f"not in zoo {MODEL_DEPTHS}"
            )
        if self.storage not in STORAGE_PROFILES:
            raise PlanningError(
                f"cohort {self.name!r}: unknown storage {self.storage!r} "
                f"(have: {sorted(STORAGE_PROFILES)})"
            )
        positive(f"{who} crossings_per_day_mean", self.crossings_per_day_mean, error=PlanningError)
        positive(f"{who} images_per_crossing", self.images_per_crossing, error=PlanningError)
        at_least(f"{who} traffic_shape", self.traffic_shape, 1, error=PlanningError)
        if not 0.0 < self.duty_cycle <= 1.0:
            raise PlanningError(f"{who} duty_cycle must be in (0, 1]")
        at_least(f"{who} mtbf_days", self.mtbf_days, inf_ok=True, error=PlanningError)
        at_least(f"{who} snapshot_period_days", self.snapshot_period_days, 1, error=PlanningError)
        at_least(f"{who} outage_days_mean", self.outage_days_mean, error=PlanningError)

    @property
    def storage_profile(self) -> StorageProfile:
        return STORAGE_PROFILES[self.storage]

    @property
    def model_bytes(self) -> int:
        return model_bytes(self.model_depth)


@dataclass(frozen=True)
class MegaFleetConfig:
    """Fleet-wide campaign parameters over an ordered set of cohorts."""

    cohorts: tuple[DeviceCohort, ...]
    days: int = 30
    curve: LearningCurve = field(default_factory=LearningCurve)
    #: fraction of a peer's examples that transfer across viewpoints
    transfer_value: float = 0.15
    #: days between federation rounds (0 = isolated)
    federation_period: int = 0
    #: trajectory sampling stride in days (0 = final day only); the
    #: final day is always reported
    report_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.cohorts:
            raise PlanningError("need at least one cohort")
        names = [c.name for c in self.cohorts]
        if len(set(names)) != len(names):
            raise PlanningError(f"cohort names must be unique, got {names}")
        at_least("days", self.days, 1, error=PlanningError)
        if not 0.0 <= self.transfer_value <= 1.0:
            raise PlanningError("transfer_value must be in [0, 1]")
        at_least("federation_period", self.federation_period, error=PlanningError)
        at_least("report_every", self.report_every, error=PlanningError)

    @property
    def n_devices(self) -> int:
        return sum(c.count for c in self.cohorts)

    def report_days(self) -> tuple[int, ...]:
        """Days on which aggregate trajectory samples are taken."""
        days = set(range(self.report_every, self.days + 1, self.report_every)) if self.report_every else set()
        days.add(self.days)
        return tuple(sorted(days))

    def federation_days(self) -> tuple[int, ...]:
        if not self.federation_period:
            return ()
        return tuple(range(self.federation_period, self.days + 1, self.federation_period))


def _mixed_cohorts(devices: int) -> tuple[DeviceCohort, ...]:
    """The heterogeneous reference fleet: four hardware generations."""
    shares = (
        # (name, share, depth, storage, crossings, duty, mtbf, snap, outage)
        ("pi3-sd", 0.40, 34, "sd-card", 40.0, 0.60, 45.0, 2, 1.5),
        ("pi4-sd", 0.30, 34, "sd-card", 60.0, 0.80, 90.0, 1, 1.0),
        ("xu4-emmc", 0.20, 101, "emmc", 80.0, 0.90, 120.0, 1, 0.5),
        ("jetson-emmc", 0.10, 152, "emmc", 120.0, 1.00, 180.0, 1, 0.5),
    )
    counts = [max(1, int(devices * share)) for _, share, *_ in shares]
    counts[0] += devices - sum(counts)  # remainder (±rounding) to the largest cohort
    if counts[0] < 1:
        raise PlanningError(f"mixed preset needs >= {len(shares)} devices, got {devices}")
    return tuple(
        DeviceCohort(
            name=name,
            count=count,
            model_depth=depth,
            storage=storage,
            crossings_per_day_mean=crossings,
            duty_cycle=duty,
            mtbf_days=mtbf,
            snapshot_period_days=snap,
            outage_days_mean=outage,
        )
        for (name, _share, depth, storage, crossings, duty, mtbf, snap, outage), count
        in zip(shares, counts)
    )


def preset_config(
    preset: str,
    devices: int,
    *,
    days: int = 30,
    federation_period: int = 0,
    report_every: int = 1,
    seed: int = 0,
) -> MegaFleetConfig:
    """Build a :class:`MegaFleetConfig` from a named fleet shape.

    ``uniform`` is one Pi-4-class cohort with a 90-day MTBF (the closest
    analogue of the legacy :class:`~repro.edge.fleet.FleetConfig`
    defaults plus faults); ``mixed`` is the four-generation
    heterogeneous fleet.
    """
    if devices < 1:
        raise PlanningError("devices must be >= 1")
    if preset == "uniform":
        cohorts: tuple[DeviceCohort, ...] = (
            DeviceCohort(name="uniform", count=devices, mtbf_days=90.0),
        )
    elif preset == "mixed":
        cohorts = _mixed_cohorts(devices)
    else:
        raise PlanningError(f"unknown preset {preset!r} (have: mixed, uniform)")
    return MegaFleetConfig(
        cohorts=cohorts,
        days=days,
        federation_period=federation_period,
        report_every=report_every,
        seed=seed,
    )
