"""Crash recovery: resume a Trainer from snapshots, replay simulators.

Two recovery surfaces share the fault models:

* :func:`fit_with_recovery` drives a *real*
  :class:`~repro.autodiff.trainer.Trainer` through faults: a snapshot
  policy decides when to pay the durable-write cost, a
  :class:`~repro.resilience.faults.FaultInjector` kills the run, and
  every crash rolls the trainer back to the latest snapshot and resumes
  at its :class:`~repro.autodiff.trainer.FitCursor`.  Because the batch
  order is a pure function of ``(shuffle_seed, epoch)`` and snapshots
  carry the partial-epoch accumulators, the recovered loss trajectory
  is **bit-identical** to the uninterrupted run — the property the CI
  job and ``tests/test_resilience_recovery.py`` pin down.

* :func:`run_duty_cycle_with_faults` replays the *simulated* timeline:
  training computes in snapshot-interval segments, preempted by the
  duty-cycle model and killed by a fault model; un-snapshotted work is
  lost and recomputed after a reboot.  This is the Monte-Carlo engine
  behind :mod:`repro.resilience.analysis`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from ..autodiff.data import Dataset
from ..autodiff.trainer import EpochRecord, FitCursor, Trainer
from ..edge.simulator import DutyCycleSimulator
from ..engine.hooks import compose
from ..errors import FaultError, PlanningError, at_least, positive
from ..obs import get_metrics, get_tracer
from .faults import FaultInjector, FaultModel, TransientDiskFaults
from .snapshot import (
    FixedIntervalPolicy,
    TrainingSnapshot,
    capture_snapshot,
    read_snapshot,
    restore_snapshot,
    write_snapshot,
)

__all__ = [
    "RecoveryReport",
    "fit_with_recovery",
    "FaultyRunResult",
    "run_duty_cycle_with_faults",
]


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a fault-ridden training run that reached the end."""

    history: tuple[EpochRecord, ...]
    faults: int
    restores: int
    snapshots: int
    snapshot_write_failures: int
    #: optimizer steps recomputed because they postdated the last snapshot.
    lost_steps: int
    final_step: int

    @property
    def total_steps_executed(self) -> int:
        """Useful work plus recomputed work."""
        return self.final_step + self.lost_steps


def fit_with_recovery(
    trainer: Trainer,
    data: Dataset,
    *,
    policy: FixedIntervalPolicy,
    injector: FaultInjector | None = None,
    snapshot_path: str | pathlib.Path | None = None,
    disk_faults: TransientDiskFaults | None = None,
    disk_rng: np.random.Generator | None = None,
    max_faults: int = 1000,
) -> RecoveryReport:
    """Train to completion through injected crashes.

    A step-0 snapshot is taken up front (so a crash before the first
    policy-due write rolls back to a well-defined state), then
    ``trainer.fit`` runs with an ``on_step`` hook composed — via the
    engine's :func:`~repro.engine.hooks.compose` utility — from three
    independent step callbacks: a progress marker, the ``injector``
    strike check, and the policy-driven snapshot capture (optionally
    persisted durably to ``snapshot_path`` and optionally subject to
    transient ``disk_faults``; a failed write keeps the previous
    snapshot).  On :class:`~repro.errors.FaultError` the trainer is
    restored from the latest surviving snapshot and resumed from its
    cursor; with ``snapshot_path`` set, that snapshot is read back from
    the file, so a corrupt file fails with
    :class:`~repro.errors.SnapshotError` instead of resuming.

    Raises :class:`~repro.errors.PlanningError` after ``max_faults``
    crashes (a fault schedule denser than progress would loop forever).
    """
    if disk_faults is not None and disk_rng is None:
        raise PlanningError("disk_faults needs a disk_rng to sample from")
    metrics = get_metrics()
    tracer = get_tracer()
    latest: TrainingSnapshot = capture_snapshot(trainer, FitCursor())
    if snapshot_path is not None:
        write_snapshot(snapshot_path, latest)
    counts = {"faults": 0, "restores": 0, "snapshots": 1, "write_failures": 0, "lost": 0}
    state = {"latest": latest, "final_step": 0}

    def mark_progress(cursor: FitCursor, loss: float) -> None:
        state["final_step"] = cursor.step

    def strike(cursor: FitCursor, loss: float) -> None:
        if injector is not None:
            injector.check(cursor.step)

    def snapshot_if_due(cursor: FitCursor, loss: float) -> None:
        if not policy.due(cursor.step, state["latest"].cursor.step):
            return
        if disk_faults is not None and disk_faults.write_fails(disk_rng):
            counts["write_failures"] += 1
            metrics.counter("resilience.snapshot_write_failures").inc()
            if tracer.enabled:
                tracer.event(
                    "snapshot_write_failed", category="fault", step=cursor.step
                )
            return
        snap = capture_snapshot(trainer, cursor)
        if snapshot_path is not None:
            write_snapshot(snapshot_path, snap)
        state["latest"] = snap
        counts["snapshots"] += 1

    # Ordering matters: the injector must see the step *before* a
    # snapshot could cover it, preserving the crash->rollback semantics.
    on_step = compose(mark_progress, strike, snapshot_if_due)

    with tracer.span("fit_with_recovery", category="recovery") as span:
        cursor: FitCursor | None = None
        while True:
            try:
                history = trainer.fit(data, cursor=cursor, on_step=on_step)
                break
            except FaultError as exc:
                counts["faults"] += 1
                if counts["faults"] > max_faults:
                    raise PlanningError(
                        f"gave up after {max_faults} faults — fault rate outpaces "
                        "progress at this snapshot interval"
                    ) from exc
                # A real crash loses memory: restore from the durable file
                # (CRC-checked on read) whenever there is one.
                snap = (
                    state["latest"] if snapshot_path is None else read_snapshot(snapshot_path)
                )
                crashed_at = exc.step if exc.step is not None else state["final_step"]
                lost = crashed_at - snap.cursor.step
                counts["lost"] += lost
                metrics.gauge("resilience.lost_steps").set(counts["lost"])
                cursor = restore_snapshot(trainer, snap)
                counts["restores"] += 1
        span.set_tag("faults", counts["faults"])
        span.set_tag("lost_steps", counts["lost"])
    return RecoveryReport(
        history=tuple(history),
        faults=counts["faults"],
        restores=counts["restores"],
        snapshots=counts["snapshots"],
        snapshot_write_failures=counts["write_failures"],
        lost_steps=counts["lost"],
        final_step=state["final_step"],
    )


# ---------------------------------------------------------------------------
# Simulated timeline: duty cycle + crashes + rollback
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultyRunResult:
    """A training campaign's timeline under preemption and crashes."""

    compute_seconds: float
    wall_seconds: float
    crashes: int
    #: compute that had to be redone (work since the last snapshot).
    lost_compute_seconds: float
    snapshot_overhead_seconds: float
    restart_overhead_seconds: float
    preemptions: int

    @property
    def overhead_factor(self) -> float:
        """Wall time relative to the fault-free, snapshot-free compute."""
        if self.compute_seconds <= 0:
            return 1.0
        return self.wall_seconds / self.compute_seconds


def run_duty_cycle_with_faults(
    compute_seconds: float,
    faults: FaultModel,
    rng: np.random.Generator,
    *,
    interval_seconds: float,
    snapshot_seconds: float,
    restart_seconds: float = 60.0,
    sim: DutyCycleSimulator | None = None,
) -> FaultyRunResult:
    """Accumulate ``compute_seconds`` of training despite crashes.

    The run proceeds in snapshot intervals: each segment costs its
    compute plus the durable-write δ (skipped after the final segment);
    a failure inside a segment loses the segment's progress — including
    a crash *during* the snapshot write, which loses the whole segment —
    and costs a reboot.  Failure clocks restart at each segment
    boundary (exact for the memoryless :class:`PoissonFaults
    <repro.resilience.faults.PoissonFaults>`; the standard
    replacement-renewal approximation otherwise).  When ``sim`` is
    given, every second of compute/snapshot work is additionally
    stretched by the duty-cycle preemption model.
    """
    at_least("compute_seconds", compute_seconds)
    positive("interval_seconds", interval_seconds)
    at_least("snapshot_seconds", snapshot_seconds)
    at_least("restart_seconds", restart_seconds)

    def busy(seconds: float) -> tuple[float, int]:
        """Wall time (and preemption count) to get ``seconds`` of work."""
        if sim is None:
            return seconds, 0
        r = sim.run(seconds)
        return r.wall_seconds, r.preemptions

    done = 0.0
    wall = 0.0
    crashes = 0
    lost = 0.0
    snap_overhead = 0.0
    restart_overhead = 0.0
    preemptions = 0
    while done < compute_seconds:
        seg = min(interval_seconds, compute_seconds - done)
        final = done + seg >= compute_seconds
        need = seg + (0.0 if final else snapshot_seconds)
        time_to_failure = faults.sample_time_to_failure(rng)
        if time_to_failure >= need:
            w, p = busy(need)
            wall += w
            preemptions += p
            done += seg
            snap_overhead += need - seg
        else:
            crashes += 1
            w, p = busy(time_to_failure)
            wall += w
            preemptions += p
            lost += min(time_to_failure, seg)
            wall += restart_seconds
            restart_overhead += restart_seconds
    m = get_metrics()
    m.counter("resilience.sim_crashes").inc(crashes)
    m.histogram("resilience.sim_overhead_factor").observe(
        wall / compute_seconds if compute_seconds else 1.0
    )
    return FaultyRunResult(
        compute_seconds=compute_seconds,
        wall_seconds=wall,
        crashes=crashes,
        lost_compute_seconds=lost,
        snapshot_overhead_seconds=snap_overhead,
        restart_overhead_seconds=restart_overhead,
        preemptions=preemptions,
    )
