"""repro.resilience — fault injection, durable snapshots, crash recovery.

The paper's field deployment (Sections III/VI) trains opportunistically
on nodes with intermittent power and preemptive tenants; this package
makes that failure mode a first-class, simulated and *tested* workload:

* :mod:`~repro.resilience.faults` — seeded fault models (Poisson MTBF,
  transient disk writes) and an injector that kills a real
  ``Trainer.fit``;
* :mod:`~repro.resilience.snapshot` — full training-state snapshots
  (params + optimizer + RNG cursor + epoch/batch position) in versioned
  JSON, a fixed-interval write policy and the Young/Daly interval;
* :mod:`~repro.resilience.recovery` — bit-identical resume for
  ``Trainer`` and crash/rollback replay for the duty-cycle timeline;
* :mod:`~repro.resilience.analysis` — expected makespan, snapshot-
  interval sweeps against τ* = √(2δM), overhead vs fault rate.

Fault and recovery events flow through :mod:`repro.obs` (categories
``fault`` and ``recovery``; counters ``resilience.*``) so any traced
run shows its crashes next to its epochs.  See ``docs/resilience.md``.
"""

from .analysis import (
    IntervalSweep,
    OverheadRow,
    SweepRow,
    daly_expected_makespan,
    overhead_vs_fault_rate,
    simulate_makespan,
    sweep_intervals,
)
from .faults import (
    FaultInjector,
    FaultModel,
    PoissonFaults,
    TransientDiskFaults,
)
from .recovery import (
    FaultyRunResult,
    RecoveryReport,
    fit_with_recovery,
    run_duty_cycle_with_faults,
)
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    FixedIntervalPolicy,
    TrainingSnapshot,
    capture_snapshot,
    read_snapshot,
    restore_snapshot,
    snapshot_from_json,
    snapshot_to_json,
    write_snapshot,
    young_daly_interval,
)

__all__ = [
    "FaultModel",
    "PoissonFaults",
    "TransientDiskFaults",
    "FaultInjector",
    "SNAPSHOT_FORMAT_VERSION",
    "TrainingSnapshot",
    "capture_snapshot",
    "restore_snapshot",
    "snapshot_to_json",
    "snapshot_from_json",
    "write_snapshot",
    "read_snapshot",
    "young_daly_interval",
    "FixedIntervalPolicy",
    "RecoveryReport",
    "fit_with_recovery",
    "FaultyRunResult",
    "run_duty_cycle_with_faults",
    "daly_expected_makespan",
    "simulate_makespan",
    "SweepRow",
    "IntervalSweep",
    "sweep_intervals",
    "OverheadRow",
    "overhead_vs_fault_rate",
]
