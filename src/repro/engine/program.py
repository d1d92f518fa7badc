"""Flat program IR: schedules compiled to parallel int arrays.

A :class:`~repro.checkpointing.schedule.Schedule` is a tuple of
:class:`~repro.checkpointing.actions.Action` objects — ideal to build
and reason about, slow to execute thousands of times.  This module
compiles a schedule once into a :class:`CompiledProgram`:

* parallel ``opcodes`` / ``args`` arrays (one int row per action) plus a
  precomputed ``aux`` operand — the cursor an ADVANCE starts from, the
  activation index a SNAPSHOT/RESTORE/FREE touches, the step an ADJOINT
  reverses — so execution never re-derives machine state;
* the full state trajectory (``cursor_after``, ``occupied_after`` and
  the running forward/replay/backward counters) captured by abstract
  interpretation at compile time;
* schedule-level aggregates (``executions``, ``peak_slots``,
  snapshot/restore counts) that are backend-independent.

Compilation *is* validation, and the only place it happens: every
structural invariant of a schedule is checked here, raising
:class:`~repro.errors.ExecutionError` with one canonical message per
rule, so the VM (:func:`repro.engine.execute`) dispatches a program with
no per-action checks at all.  The decompiler
(:func:`decompile`) inverts compilation exactly —
``decompile(compile_schedule(s)) == s`` for every valid schedule.

:func:`run_compiled_sim` is the whole-program fast path for the
analytic :class:`~repro.engine.sim.SimBackend`: byte peaks from one
``int64`` cumulative sum over slot deltas, costs from prefix-sum
differences accumulated with ``np.add.accumulate`` — the same
left-to-right float additions the VM's per-action loop performs, so the
resulting :class:`~repro.engine.stats.RunStats` is bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..checkpointing.actions import (
    COMPRESS_SLOT_BASE,
    Action,
    ActionKind,
    tier_of_slot,
)
from ..checkpointing.schedule import Schedule
from ..errors import ExecutionError
from .stats import RunStats

__all__ = [
    "PROGRAM_VERSION",
    "OP_ADVANCE",
    "OP_SNAPSHOT",
    "OP_RESTORE",
    "OP_FREE",
    "OP_ADJOINT",
    "OPCODE_NAMES",
    "KIND_BY_OP",
    "CompiledProgram",
    "compile_schedule",
    "decompile",
    "run_compiled_sim",
]

#: Encoding version, hashed into :attr:`CompiledProgram.digest`.
PROGRAM_VERSION = 1

# Opcode encoding; the order is part of the digested encoding.
OP_ADVANCE = 0
OP_SNAPSHOT = 1
OP_RESTORE = 2
OP_FREE = 3
OP_ADJOINT = 4

OPCODE_NAMES = ("ADVANCE", "SNAPSHOT", "RESTORE", "FREE", "ADJOINT")

#: Opcode -> ActionKind, for decompilation and StepStats construction.
KIND_BY_OP = (
    ActionKind.ADVANCE,
    ActionKind.SNAPSHOT,
    ActionKind.RESTORE,
    ActionKind.FREE,
    ActionKind.ADJOINT,
)

_OP_BY_KIND = {kind: op for op, kind in enumerate(KIND_BY_OP)}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A schedule lowered to flat arrays plus its precomputed trajectory.

    All arrays are read-only and length ``n`` (one row per action)
    unless noted.  ``aux`` is the precomputed operand the VM would
    otherwise derive from machine state; the ``*_after`` and ``*_cum``
    arrays snapshot the abstract machine right after each action, which
    is exactly what :class:`~repro.engine.stats.StepStats` reports.
    """

    strategy: str
    length: int
    slots: int
    opcodes: np.ndarray  # int32
    args: np.ndarray  # int32
    aux: np.ndarray  # int32: start cursor / activation index / step
    cursor_after: np.ndarray  # int32
    occupied_after: np.ndarray  # int32
    forward_cum: np.ndarray  # int32 running pure-forward steps
    replay_cum: np.ndarray  # int32 running adjoint replays
    backwards_cum: np.ndarray  # int32 running backwards done
    slot_sign: np.ndarray  # int8: +1 SNAPSHOT, -1 FREE, else 0
    adv_start: np.ndarray  # int32, one per ADVANCE, in order
    adv_stop: np.ndarray  # int32, one per ADVANCE, in order
    adjoint_steps: np.ndarray  # int32, one per ADJOINT, in order
    forward_steps: int
    snapshots_taken: int
    restores: int
    peak_slots: int
    executions: tuple[int, ...]
    final_cursor: int
    final_slots: tuple[tuple[int, int], ...]  # (slot, activation index)

    def __len__(self) -> int:
        return int(self.opcodes.shape[0])

    def matches(self, schedule: Schedule) -> bool:
        """Cheap structural check that this program came from ``schedule``."""
        return (
            self.strategy == schedule.strategy
            and self.length == schedule.length
            and self.slots == schedule.slots
            and len(self) == len(schedule.actions)
        )

    # -- fast-iteration views (the generic dispatch loop uses these) ----
    @cached_property
    def ops_list(self) -> tuple[int, ...]:
        return tuple(self.opcodes.tolist())

    @cached_property
    def args_list(self) -> tuple[int, ...]:
        return tuple(self.args.tolist())

    @cached_property
    def aux_list(self) -> tuple[int, ...]:
        return tuple(self.aux.tolist())

    # -- tier-aware aggregates (derived from the shared slot alphabet) ---
    @cached_property
    def tier_usage(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per-tier ``(tier, snapshots, restores, peak_slots)`` rows.

        Derived from the opcode/arg arrays alone via
        :func:`~repro.checkpointing.actions.tier_of_slot`, so the rows
        survive payload round-trips by construction.  Tiers appear in
        ascending order; a program that never touches a slot has no rows.
        """
        snaps: dict[int, int] = {}
        reads: dict[int, int] = {}
        held: dict[int, int] = {}
        peaks: dict[int, int] = {}
        for op, arg in zip(self.ops_list, self.args_list):
            if op == OP_ADVANCE or op == OP_ADJOINT:
                continue
            t = tier_of_slot(arg)
            if op == OP_SNAPSHOT:
                snaps[t] = snaps.get(t, 0) + 1
                held[t] = held.get(t, 0) + 1
                if held[t] > peaks.get(t, 0):
                    peaks[t] = held[t]
            elif op == OP_RESTORE:
                reads[t] = reads.get(t, 0) + 1
            else:  # OP_FREE
                held[t] = held.get(t, 0) - 1
        tiers = sorted(set(snaps) | set(reads))
        return tuple(
            (t, snaps.get(t, 0), reads.get(t, 0), peaks.get(t, 0)) for t in tiers
        )

    @property
    def paged(self) -> bool:
        """Whether any action touches a slot outside the RAM tier."""
        return any(t != 0 for t, _, _, _ in self.tier_usage)

    @cached_property
    def compression_usage(self) -> tuple[int, int]:
        """``(compressed snapshots, compressed restores)`` counts.

        Derived from the arg array's compressed band
        (:func:`~repro.checkpointing.actions.is_compressed_slot`);
        :attr:`tier_usage` already folds compressed slots into their
        storage tier, so this is the orthogonal how-stored summary.
        """
        snaps = 0
        reads = 0
        for op, arg in zip(self.ops_list, self.args_list):
            if arg < COMPRESS_SLOT_BASE:
                continue
            if op == OP_SNAPSHOT:
                snaps += 1
            elif op == OP_RESTORE:
                reads += 1
        return (snaps, reads)

    @property
    def compressed(self) -> bool:
        """Whether any snapshot is stored through the compressed band."""
        return self.compression_usage != (0, 0)

    # -- content addressing ----------------------------------------------
    @cached_property
    def digest(self) -> str:
        """SHA-256 over the canonical program encoding (content address)."""
        h = hashlib.sha256()
        h.update(b"program:v%d\x00" % PROGRAM_VERSION)
        h.update(self.strategy.encode("utf-8"))
        h.update(b"\x00%d:%d\x00" % (self.length, self.slots))
        h.update(np.ascontiguousarray(self.opcodes, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(self.args, dtype="<i4").tobytes())
        return h.hexdigest()


def compile_schedule(schedule: Schedule) -> CompiledProgram:
    """Lower ``schedule`` to the flat IR, enforcing every VM invariant.

    Raises :class:`~repro.errors.ExecutionError` at the first violating
    action, naming its position.  Callers normally reach this through
    the per-object memo :attr:`Schedule.program
    <repro.checkpointing.schedule.Schedule.program>`.
    """
    l = schedule.length
    budget = schedule.slots
    n = len(schedule.actions)
    opcodes = np.empty(n, np.int32)
    args = np.empty(n, np.int32)
    aux = np.empty(n, np.int32)
    cursor_after = np.empty(n, np.int32)
    occupied_after = np.empty(n, np.int32)
    forward_cum = np.empty(n, np.int32)
    replay_cum = np.empty(n, np.int32)
    backwards_cum = np.empty(n, np.int32)
    slot_sign = np.zeros(n, np.int8)
    adv_start: list[int] = []
    adv_stop: list[int] = []
    adjoint_steps: list[int] = []
    cover = [0] * (l + 1)  # difference array of per-step executions

    cursor = 0
    slots: dict[int, int] = {}
    pending = l
    forward_steps = 0
    replay_steps = 0
    snapshots_taken = 0
    restores = 0
    peak_slots = 0

    for pos, act in enumerate(schedule.actions):
        kind = act.kind
        arg = act.arg
        if kind is ActionKind.ADVANCE:
            if not cursor < arg <= l:
                raise ExecutionError(
                    f"action {pos}: ADVANCE to {arg} from cursor {cursor} (l={l})"
                )
            op, a = OP_ADVANCE, cursor
            adv_start.append(cursor)
            adv_stop.append(arg)
            cover[cursor] += 1
            cover[arg] -= 1
            forward_steps += arg - cursor
            cursor = arg
        elif kind is ActionKind.SNAPSHOT:
            if arg >= budget:
                raise ExecutionError(
                    f"action {pos}: SNAPSHOT into slot {arg} exceeds budget {budget}"
                )
            held = slots.get(arg)
            if held is not None:
                raise ExecutionError(
                    f"action {pos}: SNAPSHOT into occupied slot {arg} "
                    f"(holds x_{held}) without FREE"
                )
            slots[arg] = cursor
            op, a = OP_SNAPSHOT, cursor
            slot_sign[pos] = 1
            snapshots_taken += 1
            if len(slots) > peak_slots:
                peak_slots = len(slots)
        elif kind is ActionKind.RESTORE:
            held = slots.get(arg)
            if held is None:
                raise ExecutionError(f"action {pos}: RESTORE from empty slot {arg}")
            cursor = held
            op, a = OP_RESTORE, held
            restores += 1
        elif kind is ActionKind.FREE:
            held = slots.pop(arg, None)
            if held is None:
                raise ExecutionError(f"action {pos}: FREE of empty slot {arg}")
            op, a = OP_FREE, held
            slot_sign[pos] = -1
        elif kind is ActionKind.ADJOINT:
            step = arg
            if step != pending:
                raise ExecutionError(
                    f"action {pos}: ADJOINT({step}) but pending backward is {pending}"
                )
            if cursor != step - 1:
                raise ExecutionError(
                    f"action {pos}: ADJOINT({step}) requires cursor at {step - 1}, "
                    f"cursor is {cursor}"
                )
            cover[step - 1] += 1
            cover[step] -= 1
            op, a = OP_ADJOINT, step
            adjoint_steps.append(step)
            replay_steps += 1
            pending -= 1
        else:  # pragma: no cover - exhaustive enum
            raise ExecutionError(f"action {pos}: unknown kind {kind}")
        opcodes[pos] = op
        args[pos] = arg
        aux[pos] = a
        cursor_after[pos] = cursor
        occupied_after[pos] = len(slots)
        forward_cum[pos] = forward_steps
        replay_cum[pos] = replay_steps
        backwards_cum[pos] = l - pending

    if pending != 0:
        raise ExecutionError(
            f"schedule finished with backward steps {pending}..1 still pending"
        )
    executions: list[int] = []
    running = 0
    for i in range(l):
        running += cover[i]
        executions.append(running)
    if any(e < 1 for e in executions):
        missing = [i + 1 for i, e in enumerate(executions) if e < 1]
        raise ExecutionError(f"steps never executed forward: {missing}")

    return CompiledProgram(
        strategy=schedule.strategy,
        length=l,
        slots=budget,
        opcodes=_frozen(opcodes),
        args=_frozen(args),
        aux=_frozen(aux),
        cursor_after=_frozen(cursor_after),
        occupied_after=_frozen(occupied_after),
        forward_cum=_frozen(forward_cum),
        replay_cum=_frozen(replay_cum),
        backwards_cum=_frozen(backwards_cum),
        slot_sign=_frozen(slot_sign),
        adv_start=_frozen(np.asarray(adv_start, np.int32)),
        adv_stop=_frozen(np.asarray(adv_stop, np.int32)),
        adjoint_steps=_frozen(np.asarray(adjoint_steps, np.int32)),
        forward_steps=forward_steps,
        snapshots_taken=snapshots_taken,
        restores=restores,
        peak_slots=peak_slots,
        executions=tuple(executions),
        final_cursor=cursor,
        final_slots=tuple(sorted(slots.items())),
    )


def decompile(program: CompiledProgram) -> Schedule:
    """Reconstruct the exact source schedule of a compiled program."""
    actions = tuple(
        Action(KIND_BY_OP[op], arg)
        for op, arg in zip(program.ops_list, program.args_list)
    )
    return Schedule(
        strategy=program.strategy,
        length=program.length,
        slots=program.slots,
        actions=actions,
    )


def run_compiled_sim(program: CompiledProgram, backend) -> RunStats:
    """Whole-program vectorized execution on a :class:`SimBackend`.

    Bit-identical to dispatching the program action by action:

    * byte peaks come from an ``int64`` cumulative sum over per-action
      slot deltas (plus the initial charge, where the cursor holds
      ``x_0`` and no slot is occupied);
    * per-advance costs are the same prefix-sum differences
      :meth:`ChainSpec.advance_cost <repro.checkpointing.chainspec.ChainSpec.advance_cost>`
      computes, and every cost accumulator uses ``np.add.accumulate`` —
      a strictly left-to-right reduction, the same float additions in
      the same order as the per-action loop's ``+=``.

    The backend is left in exactly the state per-action dispatch would
    have produced (cursor, slot table, peaks), via
    :meth:`~repro.engine.sim.SimBackend.adopt`.
    """
    spec = backend.spec
    backend.begin()
    n = len(program)
    act = np.asarray(spec.act_bytes, dtype=np.int64)

    if n:
        slot_delta = act[program.aux] * program.slot_sign.astype(np.int64)
        slot_bytes_t = np.cumsum(slot_delta)
        peak_slot_bytes = max(0, int(slot_bytes_t.max()))
        live_t = slot_bytes_t + act[program.cursor_after]
        peak_bytes = max(int(act[0]), int(live_t.max()))
    else:
        peak_slot_bytes = 0
        peak_bytes = int(act[0])

    prefix = np.asarray(spec.fwd_prefix, dtype=np.float64)
    adv_costs = prefix[program.adv_stop] - prefix[program.adv_start]
    forward_cost = (
        float(np.add.accumulate(adv_costs)[-1]) if adv_costs.size else 0.0
    )
    steps = program.adjoint_steps
    if steps.size:
        fwd = np.asarray(spec.fwd_cost, dtype=np.float64)
        bwd = np.asarray(spec.bwd_cost, dtype=np.float64)
        replay_cost = float(np.add.accumulate(fwd[steps - 1])[-1])
        backward_cost = float(np.add.accumulate(bwd[steps - 1])[-1])
    else:
        replay_cost = 0.0
        backward_cost = 0.0

    backend.adopt(
        cursor=program.final_cursor,
        slots=dict(program.final_slots),
        peak_slot_bytes=peak_slot_bytes,
        peak_bytes=peak_bytes,
    )
    return RunStats(
        strategy=program.strategy,
        length=program.length,
        forward_steps=program.forward_steps,
        forward_cost=forward_cost,
        replay_steps=int(steps.size),
        replay_cost=replay_cost,
        backward_cost=backward_cost,
        executions=program.executions,
        peak_slot_bytes=peak_slot_bytes,
        peak_bytes=peak_bytes,
        peak_slots=program.peak_slots,
        snapshots_taken=program.snapshots_taken,
        restores=program.restores,
        transfer_seconds=0.0,
        tiers=backend.tier_stats(),
        compression=backend.compression_stats(),
    )
