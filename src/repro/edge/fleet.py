"""Fleet simulation: many nodes, with or without model exchange.

Section I argues that "transferring a model update back and forth
between the different nodes might introduce excessive communication" —
and Section III that viewpoint-specialized models may not even *benefit*
other nodes.  This simulator quantifies both sides for a fleet of
Array-of-Things nodes:

* **isolated** — each node adapts only on its own harvest (the paper's
  recommendation for viewpoint-specific learning);
* **federated** — nodes periodically average their knowledge, modelled
  through the learning curve: sharing transfers only the
  *viewpoint-generic* fraction of another node's examples
  (``transfer_value``), at a per-round radio cost of one model upload +
  download per node.

The result reports fleet accuracy trajectories and total radio bytes, so
the communication/benefit trade-off the paper gestures at becomes a
number.

Nodes are not assumed immortal: with a nonzero ``crash_rate_per_day``
each node can crash (power loss, SD corruption), losing every example
harvested since its last durable snapshot
(``snapshot_period_days``, the fleet-level analogue of the
:mod:`repro.resilience` snapshot policies), then sit out a sampled
outage before rejoining.  The result then reports per-node crash
counts, lost work and downtime instead of assuming full availability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanningError, at_least, positive
from ..obs import get_metrics, get_tracer
from .campaign import LearningCurve

__all__ = [
    "FleetConfig",
    "FleetDay",
    "FleetResult",
    "quantize_effective",
    "simulate_fleet",
]


def quantize_effective(effective: np.ndarray) -> np.ndarray:
    """The one quantization rule for effective sample counts.

    Effective samples (own harvest + federation-borrowed fraction) are
    fractional; the learning curve is defined on whole images.  Both
    fleet engines — :func:`simulate_fleet` and :mod:`repro.megafleet` —
    floor them through this single function before pricing accuracy, so
    the day-by-day trajectory and the final accuracies cannot quantize
    differently.  ``np.floor`` is identical to the historical
    ``int(e)`` truncation for the non-negative values that arise here,
    but is defined once and vectorized.
    """
    return np.floor(effective)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet parameters."""

    n_nodes: int = 10
    days: int = 30
    crossings_per_day_mean: float = 60.0
    images_per_crossing: float = 18.0
    #: heterogeneity: per-node traffic is Gamma-distributed with this shape
    traffic_shape: float = 2.0
    curve: LearningCurve = field(default_factory=LearningCurve)
    #: fraction of a peer's examples that transfer across viewpoints
    transfer_value: float = 0.15
    #: days between federation rounds (0 = isolated)
    federation_period: int = 0
    model_bytes: int = 50_000_000
    #: per-node daily crash probability (0 = the happy path)
    crash_rate_per_day: float = 0.0
    #: days between durable on-node snapshots; a crash loses every
    #: example harvested since the last one
    snapshot_period_days: int = 1
    #: mean extra days a crashed node stays down before rejoining
    #: (geometric; the crash day itself is always lost)
    outage_days_mean: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (1 <= self.n_nodes < math.inf and 1 <= self.days < math.inf):
            raise PlanningError("need n_nodes >= 1 and days >= 1")
        positive("crossings_per_day_mean", self.crossings_per_day_mean, error=PlanningError)
        positive("images_per_crossing", self.images_per_crossing, error=PlanningError)
        positive("traffic_shape", self.traffic_shape, error=PlanningError)
        if not 0.0 <= self.transfer_value <= 1.0:
            raise PlanningError("transfer_value must be in [0, 1]")
        at_least("federation_period", self.federation_period, error=PlanningError)
        at_least("model_bytes", self.model_bytes, error=PlanningError)
        if not 0.0 <= self.crash_rate_per_day < 1.0:
            raise PlanningError("crash_rate_per_day must be in [0, 1)")
        at_least("snapshot_period_days", self.snapshot_period_days, 1, error=PlanningError)
        at_least("outage_days_mean", self.outage_days_mean, error=PlanningError)
        at_least("seed", self.seed, error=PlanningError)


@dataclass(frozen=True)
class FleetDay:
    """Fleet-level snapshot."""

    day: int
    mean_accuracy: float
    min_accuracy: float
    radio_bytes_total: int
    #: nodes that harvested today (not mid-outage)
    nodes_up: int = -1


@dataclass(frozen=True)
class FleetResult:
    """Trajectories plus totals (and, under faults, the damage report)."""

    days: tuple[FleetDay, ...]
    final_accuracies: tuple[float, ...]
    radio_bytes_total: int
    #: per-node crash counts over the campaign
    crashes: tuple[int, ...] = ()
    #: per-node examples lost to un-snapshotted work
    lost_samples: tuple[float, ...] = ()
    #: per-node days spent down (crash day + outage) before rejoining
    downtime_days: tuple[int, ...] = ()

    @property
    def mean_final_accuracy(self) -> float:
        return float(np.mean(self.final_accuracies))

    @property
    def worst_final_accuracy(self) -> float:
        return float(np.min(self.final_accuracies))

    @property
    def total_crashes(self) -> int:
        return int(sum(self.crashes))

    @property
    def total_lost_samples(self) -> float:
        return float(sum(self.lost_samples))

    def day_reaching(self, target: float) -> int | None:
        """First day the fleet *minimum* accuracy clears ``target``."""
        for d in self.days:
            if d.min_accuracy >= target:
                return d.day
        return None


def simulate_fleet(cfg: FleetConfig) -> FleetResult:
    """Run the fleet; accuracy follows each node's effective sample count.

    A node's effective samples = its own harvest + ``transfer_value`` ×
    the mean *other-node* harvest shared at federation rounds.  Radio
    cost per round = 2 × model_bytes × n_nodes (upload + download).

    With ``crash_rate_per_day > 0`` nodes fail: a crashed node rolls its
    harvest back to the last durable snapshot (taken every
    ``snapshot_period_days``), emits a ``fault``-category trace event,
    sits out a geometric outage, then rejoins.  The happy path
    (``crash_rate_per_day == 0``) draws exactly the same random stream
    as before faults existed, so seeded results are unchanged.

    Each day is array expressions over the fleet; only ``node_crash``
    event emission loops over nodes, and only while a tracer records.
    """
    rng = np.random.default_rng(cfg.seed)
    tracer = get_tracer()
    n = cfg.n_nodes
    # Per-node mean traffic: Gamma-heterogeneous around the fleet mean.
    scale = cfg.crossings_per_day_mean / cfg.traffic_shape
    node_rates = rng.gamma(cfg.traffic_shape, scale, size=n)
    own = np.zeros(n)
    borrowed = np.zeros(n)
    snapshotted = np.zeros(n)  # harvest as of the last durable write
    down_until = np.zeros(n, dtype=np.int64)  # first day back up
    crashes = np.zeros(n, dtype=np.int64)
    lost = np.zeros(n)
    downtime = np.zeros(n, dtype=np.int64)
    radio = 0
    rounds = 0
    days: list[FleetDay] = []
    with tracer.span(
        "fleet",
        category="campaign",
        n_nodes=n,
        days=cfg.days,
        federation_period=cfg.federation_period,
        crash_rate_per_day=cfg.crash_rate_per_day,
    ) as span:
        for day in range(1, cfg.days + 1):
            up = down_until <= day
            crossings = rng.poisson(node_rates)
            own += np.where(up, crossings * cfg.images_per_crossing, 0.0)
            if cfg.crash_rate_per_day:
                up_idx = np.flatnonzero(up)
                struck = up_idx[rng.random(up_idx.size) < cfg.crash_rate_per_day]
                if struck.size:
                    lost_now = own[struck] - snapshotted[struck]
                    lost[struck] += lost_now
                    own[struck] = snapshotted[struck]
                    crashes[struck] += 1
                    if cfg.outage_days_mean > 0:
                        p = min(1.0, 1.0 / cfg.outage_days_mean)
                        outages = rng.geometric(p, size=struck.size).astype(np.int64)
                    else:
                        outages = np.zeros(struck.size, dtype=np.int64)
                    down_until[struck] = day + 1 + outages
                    downtime[struck] += outages
                    if tracer.enabled:
                        for i, lost_i in zip(struck.tolist(), lost_now.tolist()):
                            tracer.event(
                                "node_crash",
                                category="fault",
                                day=day,
                                node=i,
                                lost_samples=lost_i,
                                rejoin_day=int(down_until[i]),
                            )
                    up = down_until <= day
                # Durable snapshot day: surviving nodes persist their harvest.
                if day % cfg.snapshot_period_days == 0:
                    snapshotted[up] = own[up]
            if cfg.federation_period and day % cfg.federation_period == 0:
                others_mean = (own.sum() - own) / max(1, n - 1)
                borrowed = cfg.transfer_value * others_mean
                radio += 2 * cfg.model_bytes * n
                rounds += 1
                if tracer.enabled:
                    tracer.event(
                        "federation_round",
                        category="campaign",
                        day=day,
                        radio_bytes_total=radio,
                    )
            accs = cfg.curve.accuracy(quantize_effective(own + borrowed))
            days.append(
                FleetDay(
                    day=day,
                    mean_accuracy=float(accs.mean()),
                    min_accuracy=float(accs.min()),
                    radio_bytes_total=radio,
                    nodes_up=int(up.sum()),
                )
            )
        final = cfg.curve.accuracy(quantize_effective(own + borrowed))
        span.set_tag("radio_bytes_total", radio)
        span.set_tag("mean_final_accuracy", float(final.mean()))
        span.set_tag("crashes_total", int(crashes.sum()))
    m = get_metrics()
    m.counter("fleet.federation_rounds").inc(rounds)
    m.gauge("fleet.radio_bytes_total").set(radio)
    m.gauge("fleet.mean_final_accuracy").set(float(final.mean()))
    m.counter("fleet.crashes").inc(int(crashes.sum()))
    m.gauge("fleet.lost_samples_total").set(float(lost.sum()))
    return FleetResult(
        days=tuple(days),
        final_accuracies=tuple(float(a) for a in final),
        radio_bytes_total=radio,
        crashes=tuple(int(c) for c in crashes),
        lost_samples=tuple(float(x) for x in lost),
        downtime_days=tuple(int(d) for d in downtime),
    )
