"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by the library derives from
:class:`ReproError` so downstream users can catch library failures
distinctly from programming errors.  :func:`at_least` and
:func:`positive` are the one rule for a legal number at a config boundary.
"""

from __future__ import annotations

import math

__all__ = [
    "ReproError",
    "ConfigError",
    "ShapeError",
    "GraphError",
    "ScheduleError",
    "ExecutionError",
    "MemoryBudgetError",
    "CalibrationError",
    "PlanningError",
    "FaultError",
    "SnapshotError",
    "LabError",
    "ArtifactError",
    "ManifestError",
    "at_least",
    "positive",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of range (negative, non-finite, ...).

    Also a :class:`ValueError`, so callers that catch ``ValueError`` keep
    working.
    """


class ShapeError(ReproError):
    """A tensor shape is invalid or incompatible with a layer."""


class GraphError(ReproError):
    """A network graph is malformed (cycles, dangling inputs, ...)."""


class ScheduleError(ReproError):
    """A checkpoint schedule violates a structural invariant."""


class ExecutionError(ReproError):
    """A schedule could not be executed (missing activation, bad slot...)."""


class MemoryBudgetError(ReproError):
    """A requested configuration cannot fit the given memory budget."""


class CalibrationError(ReproError):
    """Calibration data is missing or inconsistent."""


class PlanningError(ReproError):
    """The planner could not satisfy the requested constraints."""


class FaultError(ReproError):
    """An injected fault killed a (simulated or real) training run.

    Carries the global optimizer ``step`` at which the crash struck so
    recovery code can account lost work.
    """

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class SnapshotError(ReproError):
    """A training snapshot is malformed, corrupted or truncated."""


class LabError(ReproError):
    """An experiment spec, registry entry or lab run is invalid."""


class ArtifactError(LabError):
    """A cached artifact payload is missing fields, corrupted or truncated."""


class ManifestError(LabError):
    """A provenance manifest is malformed or inconsistent with its artifacts."""



def at_least(name: str, value, lo=0, *, inf_ok=False, error: type[ReproError] = ConfigError):
    """Return ``value`` if it is finite and ``>= lo``; else raise ``error``.

    NaN and ``-inf`` always fail.  ``+inf`` passes only with ``inf_ok``,
    for quantities where infinity means "never" (a bandwidth, an MTBF).
    """
    if value >= lo and (inf_ok or value != math.inf):
        return value
    raise error(f"{name} must be {'' if inf_ok else 'finite and '}>= {lo}, got {value}")


def positive(name: str, value, *, inf_ok=False, error: type[ReproError] = ConfigError):
    """Return ``value`` if it is finite and ``> 0``; else raise ``error`` (as :func:`at_least`)."""
    if value > 0 and (inf_ok or value != math.inf):
        return value
    raise error(f"{name} must be {'' if inf_ok else 'finite and '}> 0, got {value}")
