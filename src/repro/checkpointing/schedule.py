"""Schedule container and summary statistics.

A :class:`Schedule` is an ordered list of :class:`~.actions.Action`
generated by one of the strategies, annotated with the chain length and the
slot budget it was generated for.  Validation happens once, when the
schedule is lowered to the flat program IR (:attr:`Schedule.program`);
measurement is done by executing that program on the virtual machine
(:mod:`repro.checkpointing.simulator`, :func:`repro.engine.execute`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from ..errors import ScheduleError, at_least
from .actions import Action, ActionKind

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports this package
    from ..engine.program import CompiledProgram

__all__ = ["Schedule"]


@dataclass(frozen=True)
class Schedule:
    """An executable checkpoint schedule for a chain of ``length`` steps."""

    strategy: str
    length: int
    slots: int
    actions: tuple[Action, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ScheduleError("schedule length must be >= 1")
        at_least("slot budget", self.slots, error=ScheduleError)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @cached_property
    def program(self) -> "CompiledProgram":
        """This schedule lowered to the flat program IR, compiled once.

        Memoized on the object (not a dataclass field, so equality, hash
        and repr are unchanged): every execution of one schedule reuses
        the same program.  Compiling validates; an invalid schedule
        raises :class:`~repro.errors.ExecutionError` here, on every
        access, and is never cached.
        """
        from ..engine.program import compile_schedule

        return compile_schedule(self)

    # -- static counts (no execution needed) -----------------------------
    def count(self, kind: ActionKind) -> int:
        """Number of actions of ``kind``."""
        return sum(1 for a in self.actions if a.kind is kind)

    @property
    def adjoint_count(self) -> int:
        return self.count(ActionKind.ADJOINT)

    @property
    def snapshot_count(self) -> int:
        return self.count(ActionKind.SNAPSHOT)

    def used_slots(self) -> set[int]:
        """Distinct slot ids referenced by SNAPSHOT actions."""
        return {a.arg for a in self.actions if a.kind is ActionKind.SNAPSHOT}

    def describe(self, max_lines: int = 40) -> str:
        """Readable dump (truncated) for debugging."""
        head = (
            f"Schedule[{self.strategy}] l={self.length} slots={self.slots} "
            f"({len(self.actions)} actions)"
        )
        lines = [head]
        for a in self.actions[:max_lines]:
            lines.append(f"  {a}")
        if len(self.actions) > max_lines:
            lines.append(f"  ... {len(self.actions) - max_lines} more")
        return "\n".join(lines)
