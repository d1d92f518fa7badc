"""Vectorized, event-driven simulation of 10^6+ heterogeneous devices.

The paper frames edge training as a *fleet* problem — Array-of-Things
nodes with duty cycles, crash/rejoin dynamics and communication budgets
— and the ROADMAP's north star is "millions of users".
:func:`~repro.edge.fleet.simulate_fleet` keeps the seeded per-node
stream of ``repro fleet`` (Poisson harvest jitter and all); this
package is the second engine, with its own semantics, built to scale:

* :mod:`~repro.megafleet.engine` — struct-of-arrays state, closed-form
  harvest accrual between events, a day-bucketed event heap (quiet
  days are free), heterogeneous
  :class:`~repro.megafleet.config.DeviceCohort` mixes, and
  deterministic process sharding through the lab pool;
* :mod:`~repro.megafleet.rng` — counter-based per-device random
  streams, the reason shard layout and job count cannot change a single
  simulated outcome.

See ``docs/megafleet.md`` for the architecture and the determinism
contract.
"""

from .config import (
    DeviceCohort,
    MegaFleetConfig,
    STORAGE_PROFILES,
    model_bytes,
    preset_config,
)
from .engine import (
    BLOCK,
    CohortStats,
    MegaFleetDay,
    MegaFleetResult,
    run_megafleet,
    shard_tasks,
)
from .events import CRASH, FEDERATION, REPORT, DayEventQueue

__all__ = [
    "BLOCK",
    "CRASH",
    "FEDERATION",
    "REPORT",
    "CohortStats",
    "DayEventQueue",
    "DeviceCohort",
    "MegaFleetConfig",
    "MegaFleetDay",
    "MegaFleetResult",
    "STORAGE_PROFILES",
    "model_bytes",
    "preset_config",
    "run_megafleet",
    "shard_tasks",
]
