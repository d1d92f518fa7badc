"""The schedule virtual machine: one dispatch loop for every backend.

:func:`execute` runs a :class:`~repro.checkpointing.schedule.Schedule`
against any :class:`~repro.engine.backend.Backend` by dispatching its
compiled program (:attr:`Schedule.program
<repro.checkpointing.schedule.Schedule.program>`, memoized per schedule
object).  The compiler (:func:`~repro.engine.program.compile_schedule`)
is the only validator: it proves every structural invariant —

* ADVANCE must move the cursor strictly forward and stay within the
  chain;
* SNAPSHOT must target a slot inside the budget that is **not already
  occupied** (a silent overwrite would leak the previous payload);
* RESTORE / FREE must target an occupied slot;
* ADJOINT must consume backward steps in descending order with the
  cursor parked at ``x_{step-1}``;
* at the end no backward may be pending and every step must have been
  executed forward at least once

— and raises :class:`~repro.errors.ExecutionError` with one canonical
message per rule.  It does so before ``backend.begin()``, so an invalid
schedule fails without the backend seeing a single call.

Dispatch then runs on int opcodes with no checks.  On an untraced plain
:class:`~repro.engine.sim.SimBackend` the whole program is evaluated in
a handful of NumPy array passes (:func:`~repro.engine.program.run_compiled_sim`);
every other backend, and every traced run, takes the per-action loop.

The optional ``on_step`` callback receives a
:class:`~repro.engine.stats.StepStats` after every action.  When it is
``None`` the loop skips all per-step bookkeeping, so an untraced run
pays no observation overhead.
"""

from __future__ import annotations

from typing import Callable

from ..checkpointing.schedule import Schedule
from ..errors import ExecutionError
from ..obs.tracer import Tracer
from .backend import Backend
from .program import (
    KIND_BY_OP,
    OP_ADVANCE,
    OP_FREE,
    OP_RESTORE,
    OP_SNAPSHOT,
    CompiledProgram,
    run_compiled_sim,
)
from .sim import SimBackend
from .stats import RunStats, StepStats

__all__ = ["execute"]

StepHook = Callable[[StepStats], None]


def execute(
    schedule: Schedule,
    backend: Backend,
    *,
    on_step: StepHook | None = None,
    compiled: CompiledProgram | None = None,
) -> RunStats:
    """Run ``schedule`` on ``backend`` and return unified measurements.

    Raises :class:`~repro.errors.ExecutionError` on a length mismatch or
    any invariant violation, before the backend sees any call.  The
    program dispatched is ``compiled`` when given (it must have been
    compiled from ``schedule``), otherwise the schedule's own memoized
    :attr:`~repro.checkpointing.schedule.Schedule.program`.
    """
    l = backend.chain_length
    if schedule.length != l:
        raise ExecutionError(f"schedule length {schedule.length} != chain length {l}")
    if compiled is None:
        program = schedule.program
    elif compiled.matches(schedule):
        program = compiled
    else:
        raise ExecutionError(
            f"compiled program {compiled.strategy!r} "
            f"(l={compiled.length}, slots={compiled.slots}, "
            f"{len(compiled)} ops) does not match schedule "
            f"{schedule.strategy!r} (l={schedule.length}, "
            f"slots={schedule.slots}, {len(schedule.actions)} ops)"
        )
    if on_step is None and type(backend) is SimBackend:
        return run_compiled_sim(program, backend)

    ops = program.ops_list
    args = program.args_list
    aux = program.aux_list
    forward_cost = 0.0
    replay_cost = 0.0
    backward_cost = 0.0
    transfer_seconds = 0.0
    observe = on_step is not None
    now = Tracer.now
    t0 = 0.0

    backend.begin()
    for pos in range(len(ops)):
        op = ops[pos]
        arg = args[pos]
        a = aux[pos]
        if observe:
            t0 = now()
        step_transfer = 0.0
        if op == OP_ADVANCE:
            forward_cost += backend.advance(a, arg)
        elif op == OP_SNAPSHOT:
            step_transfer = backend.snapshot(arg, a)
            transfer_seconds += step_transfer
        elif op == OP_RESTORE:
            step_transfer = backend.restore(arg, a)
            transfer_seconds += step_transfer
        elif op == OP_FREE:
            backend.free(arg, a)
        else:  # OP_ADJOINT
            rc, bc = backend.adjoint(arg)
            replay_cost += rc
            backward_cost += bc
        if observe:
            on_step(
                StepStats(
                    pos=pos,
                    kind=KIND_BY_OP[op],
                    arg=arg,
                    cursor=int(program.cursor_after[pos]),
                    occupied_slots=int(program.occupied_after[pos]),
                    forward_steps=int(program.forward_cum[pos]),
                    replay_steps=int(program.replay_cum[pos]),
                    backwards_done=int(program.backwards_cum[pos]),
                    slot_bytes=backend.slot_bytes,
                    live_bytes=backend.live_bytes,
                    transfer_seconds=step_transfer,
                    started=t0,
                )
            )

    return RunStats(
        strategy=program.strategy,
        length=l,
        forward_steps=program.forward_steps,
        forward_cost=forward_cost,
        replay_steps=int(program.adjoint_steps.size),
        replay_cost=replay_cost,
        backward_cost=backward_cost,
        executions=program.executions,
        peak_slot_bytes=backend.peak_slot_bytes,
        peak_bytes=backend.peak_bytes,
        peak_slots=program.peak_slots,
        snapshots_taken=program.snapshots_taken,
        restores=program.restores,
        transfer_seconds=transfer_seconds,
        tiers=backend.tier_stats(),
        compression=backend.compression_stats(),
    )
