"""The unified schedule execution engine.

One virtual machine (:func:`execute`) runs checkpoint schedules
for *every* consumer — the analytic simulator, the real-tensor executor
and the tiered-storage model — through a pluggable
:class:`~repro.engine.backend.Backend`:

* :class:`SimBackend` — ChainSpec cost accounting (no tensors);
* :class:`TensorBackend` — real ``SequentialNet`` forwards/adjoints with
  a live-byte meter;
* :class:`TieredBackend` — RAM + disk slot tiers, each transfer priced
  by :func:`~repro.edge.storage.paged_transfer` (as the joint planner is);
* :class:`CompressedBackend` — a TieredBackend whose constructor sets a
  :class:`~repro.edge.storage.CompressionModel` for compressed-band slots.

Every schedule is compiled once (:func:`compile_schedule`, the only
validator) and the VM dispatches the resulting program, emitting unified
:class:`~repro.engine.stats.StepStats` / :class:`~repro.engine.stats.RunStats`;
:mod:`repro.engine.hooks` builds the standard trace observers.
:func:`repro.checkpointing.simulate` and :func:`repro.autodiff.run_schedule`
are thin drivers of this engine on the sim and tensor backends.
"""

from .backend import Backend, BaseBackend
from .compressed import CompressedBackend
from .hooks import action_span_hook, compose, sim_event_hook
from .program import (
    OP_ADJOINT,
    OP_ADVANCE,
    OP_FREE,
    OP_RESTORE,
    OP_SNAPSHOT,
    OPCODE_NAMES,
    CompiledProgram,
    compile_schedule,
    decompile,
)
from .sim import SimBackend
from .stats import CompressionStats, RunStats, StepStats, TierStats
from .tensor import TensorBackend
from .tiered import TieredBackend
from .vm import execute

__all__ = [
    "Backend",
    "BaseBackend",
    "RunStats",
    "StepStats",
    "TierStats",
    "CompressionStats",
    "SimBackend",
    "TensorBackend",
    "TieredBackend",
    "CompressedBackend",
    "CompiledProgram",
    "compile_schedule",
    "decompile",
    "OPCODE_NAMES",
    "OP_ADVANCE",
    "OP_SNAPSHOT",
    "OP_RESTORE",
    "OP_FREE",
    "OP_ADJOINT",
    "execute",
    "compose",
    "action_span_hook",
    "sim_event_hook",
]
