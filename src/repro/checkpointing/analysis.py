"""Closed-form analysis: the exact memory/recompute Pareto frontier.

:func:`pareto_frontier` is derived from Revolve's binomial structure: the
curve ``{(c, extra(l, c))}`` with dominated points removed — the object
Figure 1 projects into bytes, exposed as data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlanningError
from .revolve import extra_forwards, repetition_number

__all__ = ["ParetoPoint", "pareto_frontier"]


@dataclass(frozen=True)
class ParetoPoint:
    """One point on the exact memory/recompute frontier."""

    slots: int
    extra_forwards: int
    repetition: int

    def rho(self, l: int, bwd_ratio: float = 1.0) -> float:
        return 1.0 + self.extra_forwards / (l * (1.0 + bwd_ratio))


def pareto_frontier(l: int) -> list[ParetoPoint]:
    """The full non-dominated (slots, extra) curve for a chain of ``l``.

    Strictly decreasing in ``extra`` as ``slots`` grows; consecutive slot
    counts with equal cost are collapsed to the smaller count.
    """
    if l < 1:
        raise PlanningError("chain length must be >= 1")
    points: list[ParetoPoint] = []
    prev_extra: int | None = None
    for c in range(1, max(2, l)):
        extra = extra_forwards(l, c)
        if prev_extra is not None and extra == prev_extra:
            continue
        points.append(
            ParetoPoint(slots=c, extra_forwards=extra, repetition=repetition_number(l, c))
        )
        prev_extra = extra
        if extra == 0:
            break
    return points
