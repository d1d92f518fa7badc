"""Crash-recovery analysis: expected makespan and interval sweeps.

Three questions a deployment planner asks before shipping a training
campaign to a flaky node:

1. *How long will it really take?* — :func:`daly_expected_makespan`
   gives the closed-form first-order answer for exponential failures
   (Daly's segment model: each interval of work ``τ`` plus write cost
   ``δ`` takes ``(M + R)·(e^{(τ+δ)/M} − 1)`` in expectation at MTBF
   ``M`` and reboot cost ``R``); :func:`simulate_makespan` measures the
   same quantity by Monte-Carlo replay of the crash/rollback timeline.

2. *How often should we snapshot?* — :func:`sweep_intervals` runs the
   replay across an interval grid centred on the Young/Daly optimum
   ``τ* = √(2·δ·M)`` and reports predicted vs measured makespans; the
   measured minimum landing at the grid point nearest τ* is the
   empirical recovery of the classic result (an acceptance test of this
   subsystem).

3. *How bad can the node be?* — :func:`overhead_vs_fault_rate` sweeps
   MTBF at the per-MTBF-optimal interval, pricing how the wall-clock
   overhead grows as failures become more frequent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, PlanningError, at_least, positive
from ..obs import get_tracer
from .faults import FaultModel, PoissonFaults
from .recovery import run_duty_cycle_with_faults
from .snapshot import young_daly_interval

__all__ = [
    "daly_expected_makespan",
    "simulate_makespan",
    "SweepRow",
    "IntervalSweep",
    "sweep_intervals",
    "OverheadRow",
    "overhead_vs_fault_rate",
]


def daly_expected_makespan(
    work_seconds: float,
    interval_seconds: float,
    snapshot_seconds: float,
    restart_seconds: float,
    mtbf_seconds: float,
) -> float:
    """Expected wall time under exponential failures, closed form.

    The work is cut into ``ceil(W/τ)`` segments; a segment that must
    stay up for ``t = τ + δ`` seconds on a node with exponential MTBF
    ``M`` and reboot cost ``R`` takes ``(M + R)·(e^{t/M} − 1)`` in
    expectation (the standard renewal argument behind Daly's higher-
    order interval analysis).  The final, possibly partial segment
    skips the snapshot write, matching the simulator's timeline.
    """
    at_least("work_seconds", work_seconds)
    positive("interval_seconds", interval_seconds)
    at_least("snapshot_seconds", snapshot_seconds)
    at_least("restart_seconds", restart_seconds)
    positive("mtbf_seconds", mtbf_seconds)
    if work_seconds == 0:
        return 0.0

    def segment(uptime: float) -> float:
        return (mtbf_seconds + restart_seconds) * math.expm1(uptime / mtbf_seconds)

    n_full, rem = divmod(work_seconds, interval_seconds)
    n_full = int(n_full)
    total = 0.0
    if rem > 0:
        total += n_full * segment(interval_seconds + snapshot_seconds)
        total += segment(rem)
    elif n_full > 0:
        total += (n_full - 1) * segment(interval_seconds + snapshot_seconds)
        total += segment(interval_seconds)
    return total


def simulate_makespan(
    work_seconds: float,
    interval_seconds: float,
    snapshot_seconds: float,
    restart_seconds: float,
    faults: FaultModel,
    rng: np.random.Generator,
    trials: int = 50,
) -> float:
    """Mean Monte-Carlo wall time of the crash/rollback replay."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    total = 0.0
    for _ in range(trials):
        total += run_duty_cycle_with_faults(
            work_seconds,
            faults,
            rng,
            interval_seconds=interval_seconds,
            snapshot_seconds=snapshot_seconds,
            restart_seconds=restart_seconds,
        ).wall_seconds
    return total / trials


@dataclass(frozen=True)
class SweepRow:
    """One interval's predicted and measured makespan."""

    interval_seconds: float
    predicted_seconds: float
    measured_seconds: float


@dataclass(frozen=True)
class IntervalSweep:
    """Interval sweep result, anchored at the Young/Daly optimum."""

    tau_star_seconds: float
    mtbf_seconds: float
    snapshot_seconds: float
    rows: tuple[SweepRow, ...]

    @property
    def best_measured(self) -> SweepRow:
        return min(self.rows, key=lambda r: r.measured_seconds)

    @property
    def best_predicted(self) -> SweepRow:
        return min(self.rows, key=lambda r: r.predicted_seconds)

    def recovers_young_daly(self, within_factor: float = 2.0) -> bool:
        """Did the measured optimum land within ``within_factor`` of τ*?

        The grid is geometric, so "within a factor of 2" means the
        winning interval is τ*'s own grid point or one of its immediate
        neighbours — the empirical recovery of the classic formula.
        """
        ratio = self.best_measured.interval_seconds / self.tau_star_seconds
        return 1.0 / within_factor <= ratio <= within_factor

    def render(self) -> str:
        """ASCII table of the sweep (marks τ* and the measured best)."""
        lines = [
            f"Snapshot-interval sweep: MTBF {self.mtbf_seconds / 3600:.2f} h, "
            f"snapshot cost {self.snapshot_seconds:.2f} s, "
            f"Young/Daly tau* = {self.tau_star_seconds:.1f} s",
            f"{'interval s':>11}{'tau*/x':>8}{'predicted h':>13}{'measured h':>12}{'':>4}",
        ]
        best = self.best_measured
        for r in self.rows:
            mark = " <-*" if r is best else ""
            lines.append(
                f"{r.interval_seconds:>11.1f}{r.interval_seconds / self.tau_star_seconds:>8.2f}"
                f"{r.predicted_seconds / 3600:>13.3f}{r.measured_seconds / 3600:>12.3f}{mark}"
            )
        verdict = "recovered" if self.recovers_young_daly() else "NOT recovered"
        lines.append(f"Young/Daly optimum {verdict} by the measured sweep")
        return "\n".join(lines)


def sweep_intervals(
    work_seconds: float,
    snapshot_seconds: float,
    restart_seconds: float,
    mtbf_seconds: float,
    *,
    grid_factors: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    trials: int = 60,
    seed: int = 0,
    faults: FaultModel | None = None,
) -> IntervalSweep:
    """Predicted and measured makespan across a τ*-centred interval grid.

    ``grid_factors`` multiply the Young/Daly τ*; ``faults`` defaults to
    :class:`~repro.resilience.faults.PoissonFaults` at the given MTBF
    (the regime where τ* is provably optimal to first order).
    """
    if not grid_factors:
        raise PlanningError("grid_factors must be non-empty")
    tau = young_daly_interval(mtbf_seconds, snapshot_seconds)
    model = faults if faults is not None else PoissonFaults(mtbf_seconds)
    rng = np.random.default_rng(at_least("seed", seed))
    rows = []
    with get_tracer().span(
        "interval_sweep", category="recovery", mtbf=mtbf_seconds, tau_star=tau
    ):
        for f in sorted(grid_factors):
            interval = f * tau
            rows.append(
                SweepRow(
                    interval_seconds=interval,
                    predicted_seconds=daly_expected_makespan(
                        work_seconds, interval, snapshot_seconds, restart_seconds, mtbf_seconds
                    ),
                    measured_seconds=simulate_makespan(
                        work_seconds,
                        interval,
                        snapshot_seconds,
                        restart_seconds,
                        model,
                        rng,
                        trials=trials,
                    ),
                )
            )
    return IntervalSweep(
        tau_star_seconds=tau,
        mtbf_seconds=mtbf_seconds,
        snapshot_seconds=snapshot_seconds,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class OverheadRow:
    """Overhead at one fault rate, snapshotting at that rate's τ*."""

    mtbf_seconds: float
    tau_star_seconds: float
    predicted_overhead: float
    measured_overhead: float


def overhead_vs_fault_rate(
    work_seconds: float,
    snapshot_seconds: float,
    restart_seconds: float,
    mtbfs_seconds: tuple[float, ...],
    *,
    trials: int = 40,
    seed: int = 0,
) -> tuple[OverheadRow, ...]:
    """Wall-clock overhead (makespan/work − 1) as failures densify.

    Each MTBF snapshots at its own Young/Daly optimum — the best case —
    so the curve isolates the *irreducible* price of unreliability.
    """
    rows = []
    rng = np.random.default_rng(at_least("seed", seed))
    for mtbf in mtbfs_seconds:
        tau = young_daly_interval(mtbf, snapshot_seconds)
        predicted = daly_expected_makespan(
            work_seconds, tau, snapshot_seconds, restart_seconds, mtbf
        )
        measured = simulate_makespan(
            work_seconds,
            tau,
            snapshot_seconds,
            restart_seconds,
            PoissonFaults(mtbf),
            rng,
            trials=trials,
        )
        rows.append(
            OverheadRow(
                mtbf_seconds=mtbf,
                tau_star_seconds=tau,
                predicted_overhead=predicted / work_seconds - 1.0,
                measured_overhead=measured / work_seconds - 1.0,
            )
        )
    return tuple(rows)
