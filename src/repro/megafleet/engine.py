"""The megafleet engine: closed-form accrual between events, sharded.

Device state is struct-of-arrays per cohort shard: expected harvest
rate, the day the device last (re)joined, the harvest surviving its
last crash, and crash/lost/downtime accounting.  Between events a
device's harvest is the closed form ``base + rate * (day − up_since +
1)``, so nothing touches a device on a quiet day — the
:class:`~repro.megafleet.events.DayEventQueue` only wakes the engine on
crash, federation and report days.

Harvest here is the *expected* daily yield per device (rates stay
random across devices via the counter-based RNG; the day-to-day Poisson
jitter of the legacy engine is integrated out).  That is what makes
closed-form accrual — and therefore event-driven skipping — possible.
The seeded stream, Poisson noise and all, is
:func:`repro.edge.fleet.simulate_fleet`.

Determinism contract (what makes ``--jobs 1`` == ``--jobs 2`` byte-for-
byte, for any shard size):

* every random draw is a pure function of (seed, cohort name, device
  ordinal, counter) — shard layout cannot touch it;
* float reductions are performed per cohort-relative ``BLOCK``-device
  slice (``np.add.reduceat``), shards may only cut at block
  boundaries, and the parent concatenates the block partials in global
  order before the single final ``np.sum`` — so the floating-point
  summation tree is a constant of the configuration;
* integer and min reductions are order-invariant anyway.

Federation couples devices across shards only through per-round fleet
totals, so a federated run is two passes: pass 1 collects block sums of
per-device harvest at each federation day, the parent reduces them to
scalar totals, and pass 2 replays the (identical, pure-RNG) dynamics
pricing ``borrowed`` against those totals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..edge.fleet import quantize_effective
from ..edge.storage import PAPER_IMAGE_KB
from ..units import KB
from ..obs import get_metrics, get_tracer
from .config import DeviceCohort, MegaFleetConfig
from .events import CRASH, FEDERATION, REPORT, DayEventQueue
from .rng import TAG_CRASH, TAG_OUTAGE, TAG_RATE, device_keys, erlang, geometric, uniforms

__all__ = [
    "BLOCK",
    "CohortStats",
    "MegaFleetDay",
    "MegaFleetResult",
    "run_megafleet",
    "shard_tasks",
]

#: float reductions happen per this many cohort-relative devices; shard
#: boundaries are only allowed at multiples of it (see module docstring)
BLOCK = 4096

#: default devices per shard (a multiple of BLOCK)
DEFAULT_SHARD_DEVICES = 32 * BLOCK


@dataclass(frozen=True)
class MegaFleetDay:
    """One aggregate trajectory sample."""

    day: int
    mean_accuracy: float
    min_accuracy: float
    devices_up: int
    radio_bytes_total: int


@dataclass(frozen=True)
class CohortStats:
    """Per-cohort damage report and outcome."""

    name: str
    devices: int
    model_depth: int
    storage: str
    crashes: int
    lost_samples: float
    downtime_days: int
    mean_harvest: float
    mean_final_accuracy: float
    #: analytic per-device seconds spent on durable snapshot writes over
    #: the campaign (expected delta dataset per period, cohort's medium)
    snapshot_write_seconds: float


@dataclass(frozen=True)
class MegaFleetResult:
    """Fleet-wide aggregates; no per-device arrays survive the run."""

    n_devices: int
    days: int
    trajectory: tuple[MegaFleetDay, ...]
    cohorts: tuple[CohortStats, ...]
    radio_bytes_total: int
    total_crashes: int
    total_lost_samples: float
    total_downtime_days: int
    total_harvest: float
    n_shards: int

    @property
    def mean_final_accuracy(self) -> float:
        return self.trajectory[-1].mean_accuracy

    @property
    def min_final_accuracy(self) -> float:
        return self.trajectory[-1].min_accuracy

    def to_payload(self) -> dict:
        """Strict-JSON plain data, *excluding* execution metadata.

        ``n_shards`` depends on ``shard_devices`` (an execution knob,
        not part of the experiment); everything here is a pure function
        of the :class:`~repro.megafleet.config.MegaFleetConfig`, which
        is what the determinism checks and the lab cache key rely on.
        """
        return {
            "n_devices": self.n_devices,
            "days": self.days,
            "trajectory": [
                {
                    "day": d.day,
                    "mean_accuracy": d.mean_accuracy,
                    "min_accuracy": d.min_accuracy,
                    "devices_up": d.devices_up,
                    "radio_bytes_total": d.radio_bytes_total,
                }
                for d in self.trajectory
            ],
            "cohorts": [
                {
                    "name": c.name,
                    "devices": c.devices,
                    "model_depth": c.model_depth,
                    "storage": c.storage,
                    "crashes": c.crashes,
                    "lost_samples": c.lost_samples,
                    "downtime_days": c.downtime_days,
                    "mean_harvest": c.mean_harvest,
                    "mean_final_accuracy": c.mean_final_accuracy,
                    "snapshot_write_seconds": c.snapshot_write_seconds,
                }
                for c in self.cohorts
            ],
            "totals": {
                "crashes": self.total_crashes,
                "lost_samples": self.total_lost_samples,
                "downtime_days": self.total_downtime_days,
                "harvest": self.total_harvest,
                "radio_bytes": self.radio_bytes_total,
            },
            "final": {
                "mean_accuracy": self.mean_final_accuracy,
                "min_accuracy": self.min_final_accuracy,
            },
        }


def shard_tasks(
    cfg: MegaFleetConfig, shard_devices: int = DEFAULT_SHARD_DEVICES
) -> list[tuple[int, int, int]]:
    """(cohort index, start, stop) ranges, cut only at block boundaries.

    Shards never span cohorts, and ``shard_devices`` is rounded up to a
    multiple of :data:`BLOCK` so every cut point is a legal one under
    the determinism contract.  The task list depends only on the config
    and ``shard_devices`` — never on ``jobs``.
    """
    span = max(BLOCK, -(-int(shard_devices) // BLOCK) * BLOCK)
    tasks: list[tuple[int, int, int]] = []
    for ci, cohort in enumerate(cfg.cohorts):
        for start in range(0, cohort.count, span):
            tasks.append((ci, start, min(start + span, cohort.count)))
    return tasks


def _block_sums(values: np.ndarray) -> np.ndarray:
    """Partial sums over consecutive BLOCK-sized slices of one shard."""
    return np.add.reduceat(values, np.arange(0, values.size, BLOCK))


def _simulate_shard(
    cfg: MegaFleetConfig,
    cohort_idx: int,
    start: int,
    stop: int,
    fed_totals: dict[int, float] | None,
) -> dict:
    """Simulate cohort devices [start, stop); return block-sum partials.

    ``fed_totals=None`` with federation enabled is pass 1: only the
    per-federation-day harvest block sums come back.  Otherwise this is
    the full (only) pass: trajectory partials at each report day plus
    the end-of-campaign accounting.
    """
    t0 = time.perf_counter()
    cohort: DeviceCohort = cfg.cohorts[cohort_idx]
    n = stop - start
    horizon = cfg.days
    keys = device_keys(cfg.seed, cohort.name, n, start=start)
    rate = (
        erlang(keys, TAG_RATE, cohort.traffic_shape,
               cohort.crossings_per_day_mean / cohort.traffic_shape)
        * cohort.images_per_crossing
        * cohort.duty_cycle
    )
    base = np.zeros(n)
    up_since = np.ones(n, dtype=np.int64)
    crash_seq = np.zeros(n, dtype=np.uint64)  # per-device draw counter
    crashes = np.zeros(n, dtype=np.int64)
    lost = np.zeros(n)
    downtime = np.zeros(n, dtype=np.int64)
    borrowed = np.zeros(n)

    p_crash = float(-np.expm1(-1.0 / cohort.mtbf_days)) if cohort.mtbf_days > 0 else 0.0
    p_out = min(1.0, 1.0 / cohort.outage_days_mean) if cohort.outage_days_mean > 0 else 0.0
    period = cohort.snapshot_period_days
    n_fleet = cfg.n_devices
    phase1 = fed_totals is None and cfg.federation_period > 0

    queue = DayEventQueue()
    for f in cfg.federation_days():
        queue.push(f, FEDERATION)
    if not phase1:
        for r in cfg.report_days():
            queue.push(r, REPORT)
    if p_crash > 0.0:
        first = geometric(uniforms(keys, TAG_CRASH, crash_seq), p_crash)
        queue.push_crashes(first, np.arange(n, dtype=np.int64), horizon)

    def harvest_at(day: int) -> tuple[np.ndarray, np.ndarray]:
        up = up_since <= day
        return np.where(up, base + rate * (day - up_since + 1), base), up

    fed_cur_sums: dict[int, np.ndarray] = {}
    acc_sums: dict[int, np.ndarray] = {}
    acc_min: dict[int, float] = {}
    up_count: dict[int, int] = {}
    final_cur = base  # overwritten at the final report day

    with get_tracer().span(
        "megafleet.shard", category="campaign",
        cohort=cohort.name, start=start, stop=stop, phase1=phase1,
    ):
        while len(queue):
            day, kind, idx = queue.pop()
            if kind == CRASH:
                cur = base[idx] + rate[idx] * (day - up_since[idx] + 1)
                # Last durable snapshot day strictly before the crash;
                # its value only exists if the device was already up.
                snap_day = (day - 1) // period * period
                kept = np.where(
                    snap_day >= up_since[idx],
                    base[idx] + rate[idx] * (snap_day - up_since[idx] + 1),
                    base[idx],
                )
                lost[idx] += cur - kept
                crashes[idx] += 1
                if p_out > 0.0:
                    outage = geometric(
                        uniforms(keys[idx], TAG_OUTAGE, crash_seq[idx]), p_out
                    )
                else:
                    outage = np.zeros(idx.size, dtype=np.int64)
                rejoin = day + 1 + outage
                downtime[idx] += outage
                base[idx] = kept
                up_since[idx] = rejoin
                crash_seq[idx] += 1
                nxt = rejoin - 1 + geometric(
                    uniforms(keys[idx], TAG_CRASH, crash_seq[idx]), p_crash
                )
                queue.push_crashes(nxt, idx, horizon)
            elif kind == FEDERATION:
                cur, _up = harvest_at(day)
                if phase1:
                    fed_cur_sums[day] = _block_sums(cur)
                else:
                    borrowed = (
                        cfg.transfer_value
                        * (fed_totals[day] - cur)
                        / max(1, n_fleet - 1)
                    )
            else:  # REPORT
                cur, up = harvest_at(day)
                acc = cfg.curve.accuracy(quantize_effective(cur + borrowed))
                acc_sums[day] = _block_sums(acc)
                acc_min[day] = float(acc.min())
                up_count[day] = int(up.sum())
                if day == horizon:
                    final_cur = cur

    return {
        "fed_cur_sums": fed_cur_sums,
        "acc_sums": acc_sums,
        "acc_min": acc_min,
        "up_count": up_count,
        "final_cur_sums": _block_sums(final_cur),
        "lost_sums": _block_sums(lost),
        "crashes": int(crashes.sum()),
        "downtime": int(downtime.sum()),
        "wall_s": time.perf_counter() - t0,
    }


def _snapshot_write_seconds(cohort: DeviceCohort, days: int) -> float:
    """Analytic per-device cost of the cohort's durable snapshot cadence.

    Each snapshot persists the expected harvest delta since the last one
    (rate × period images at the paper's per-image size) to the cohort's
    storage medium; the campaign takes ``days // period`` of them.
    """
    writes = days // cohort.snapshot_period_days
    delta_images = (
        cohort.crossings_per_day_mean
        * cohort.images_per_crossing
        * cohort.duty_cycle
        * cohort.snapshot_period_days
    )
    delta_bytes = PAPER_IMAGE_KB * KB * delta_images
    return writes * cohort.storage_profile.write_seconds(int(delta_bytes))


def run_megafleet(
    cfg: MegaFleetConfig,
    *,
    jobs: int = 1,
    shard_devices: int = DEFAULT_SHARD_DEVICES,
) -> MegaFleetResult:
    """Run the fleet, fanned out over ``jobs`` processes.

    Results are byte-identical for any ``jobs`` and any
    ``shard_devices`` (see the module docstring's determinism
    contract); both knobs are pure execution parameters.
    """
    from ..lab.runner import pool_map

    tasks = shard_tasks(cfg, shard_devices)
    fed_days = cfg.federation_days()
    metrics = get_metrics()
    with get_tracer().span(
        "megafleet", category="campaign",
        n_devices=cfg.n_devices, days=cfg.days,
        cohorts=len(cfg.cohorts), shards=len(tasks), jobs=jobs,
    ) as span:
        fed_totals: dict[int, float] | None = None
        if fed_days:
            pass1 = pool_map(
                _simulate_shard, [(cfg, ci, s, e, None) for ci, s, e in tasks], jobs
            )
            fed_totals = {
                day: float(np.sum(np.concatenate([r["fed_cur_sums"][day] for r in pass1])))
                for day in fed_days
            }
        results = pool_map(
            _simulate_shard,
            [(cfg, ci, s, e, fed_totals or {}) for ci, s, e in tasks],
            jobs,
        )
        for r in results:
            metrics.histogram("megafleet.shard_seconds").observe(r["wall_s"])

        n = cfg.n_devices
        radio_per_round = sum(2 * c.model_bytes * c.count for c in cfg.cohorts)
        trajectory = []
        for day in cfg.report_days():
            mean_acc = float(
                np.sum(np.concatenate([r["acc_sums"][day] for r in results])) / n
            )
            trajectory.append(
                MegaFleetDay(
                    day=day,
                    mean_accuracy=mean_acc,
                    min_accuracy=min(r["acc_min"][day] for r in results),
                    devices_up=sum(r["up_count"][day] for r in results),
                    radio_bytes_total=radio_per_round * sum(1 for f in fed_days if f <= day),
                )
            )

        cohort_stats = []
        for ci, cohort in enumerate(cfg.cohorts):
            mine = [r for (i, _s, _e), r in zip(tasks, results) if i == ci]
            harvest = float(np.sum(np.concatenate([r["final_cur_sums"] for r in mine])))
            acc_sum = float(np.sum(np.concatenate([r["acc_sums"][cfg.days] for r in mine])))
            cohort_stats.append(
                CohortStats(
                    name=cohort.name,
                    devices=cohort.count,
                    model_depth=cohort.model_depth,
                    storage=cohort.storage,
                    crashes=sum(r["crashes"] for r in mine),
                    lost_samples=float(np.sum(np.concatenate([r["lost_sums"] for r in mine]))),
                    downtime_days=sum(r["downtime"] for r in mine),
                    mean_harvest=harvest / cohort.count,
                    mean_final_accuracy=acc_sum / cohort.count,
                    snapshot_write_seconds=_snapshot_write_seconds(cohort, cfg.days),
                )
            )

        result = MegaFleetResult(
            n_devices=n,
            days=cfg.days,
            trajectory=tuple(trajectory),
            cohorts=tuple(cohort_stats),
            radio_bytes_total=radio_per_round * len(fed_days),
            total_crashes=sum(c.crashes for c in cohort_stats),
            total_lost_samples=float(
                np.sum(np.concatenate([r["lost_sums"] for r in results]))
            ),
            total_downtime_days=sum(c.downtime_days for c in cohort_stats),
            total_harvest=float(
                np.sum(np.concatenate([r["final_cur_sums"] for r in results]))
            ),
            n_shards=len(tasks),
        )
        span.set_tag("mean_final_accuracy", result.mean_final_accuracy)
        span.set_tag("crashes_total", result.total_crashes)
    metrics.counter("megafleet.devices_simulated").inc(n)
    metrics.counter("megafleet.crashes").inc(result.total_crashes)
    metrics.counter("megafleet.federation_rounds").inc(len(fed_days))
    metrics.gauge("megafleet.mean_final_accuracy").set(result.mean_final_accuracy)
    metrics.gauge("megafleet.radio_bytes_total").set(result.radio_bytes_total)
    metrics.gauge("megafleet.lost_samples_total").set(result.total_lost_samples)
    return result
