"""Analytic schedule execution and validation.

:func:`simulate` runs a :class:`~.schedule.Schedule` against a
:class:`~.chainspec.ChainSpec` without any real tensors — one
:func:`repro.engine.execute` on a :class:`~repro.engine.sim.SimBackend`
— and returns the engine's :class:`~repro.engine.stats.RunStats`, which
measures exactly what the paper's analysis needs:

* pure forward (ADVANCE) executions and their cost;
* replayed forwards inside adjoints (one per step, Revolve convention);
* peak checkpoint memory in bytes and in slots;
* total time under the chain's cost model, and the recompute factor ρ
  (:meth:`~repro.engine.stats.RunStats.recompute_factor`).

Invalid schedules are rejected by the compiler before anything runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ExecutionError
from ..obs import get_tracer
from .chainspec import ChainSpec
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports this package
    from ..engine.stats import RunStats

__all__ = ["simulate", "validate"]


def simulate(schedule: Schedule, spec: ChainSpec | None = None) -> "RunStats":
    """Execute ``schedule`` against ``spec`` and return measurements.

    Raises :class:`~repro.errors.ExecutionError` on any invariant
    violation: advancing backwards, restoring an empty slot, exceeding
    the slot budget, snapshotting into an occupied slot, adjoints out of
    order, or finishing with backwards pending.
    """
    # Imported lazily: repro.engine builds on this package's leaf modules.
    from ..engine.sim import SimBackend
    from ..engine.vm import execute

    if spec is None:
        spec = ChainSpec.homogeneous(schedule.length)
    tracer = get_tracer()
    on_step = None
    if tracer.enabled:
        from ..engine.hooks import sim_event_hook

        on_step = sim_event_hook(tracer)
    stats = execute(schedule, SimBackend(spec), on_step=on_step)
    if tracer.enabled:
        tracer.event(
            "simulated",
            category="sim",
            strategy=stats.strategy,
            length=stats.length,
            forward_steps=stats.forward_steps,
            replay_steps=stats.replay_steps,
            peak_slots=stats.peak_slots,
            peak_bytes=stats.peak_bytes,
            snapshots=stats.snapshots_taken,
            restores=stats.restores,
        )
    return stats


def validate(schedule: Schedule, spec: ChainSpec | None = None) -> bool:
    """True when ``schedule`` executes without invariant violations."""
    try:
        simulate(schedule, spec)
    except ExecutionError:
        return False
    return True
