"""Seeded fault models and the training fault injector.

The paper's deployment target (Sections III/VI) is a field node that
runs training *opportunistically*: power is intermittent, the training
process is the lowest-priority tenant, and nodes drop off the network
for days.  Every model here is an explicit distribution over
**time-to-failure**, seeded through a :class:`numpy.random.Generator`,
so a "fault schedule" is a reproducible artifact the recovery layer and
the analysis layer can share:

* :class:`PoissonFaults` — memoryless crashes at a given MTBF, the
  classic assumption behind the Young/Daly interval;
* :class:`TransientDiskFaults` — a snapshot *write* that fails
  (SD cards on outdoor nodes do that), which the snapshotter must
  survive by keeping the previous durable snapshot.

:class:`FaultInjector` converts failure times into optimizer steps and
kills a real :meth:`Trainer.fit <repro.autodiff.trainer.Trainer.fit>`
by raising :class:`~repro.errors.FaultError` from the ``on_step`` hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, FaultError, at_least, positive
from ..obs import get_metrics, get_tracer

__all__ = [
    "FaultModel",
    "PoissonFaults",
    "TransientDiskFaults",
    "FaultInjector",
]


class FaultModel:
    """A seeded distribution over time-to-failure (seconds).

    Subclasses implement :meth:`sample_time_to_failure`; the base class
    derives absolute crash times over a horizon.  ``mtbf_seconds`` is
    the distribution mean, the quantity the Young/Daly analysis needs.
    """

    #: mean time between failures, seconds (subclasses set it).
    mtbf_seconds: float = math.inf

    def sample_time_to_failure(self, rng: np.random.Generator) -> float:
        """Draw one time-to-failure from a fresh (rebooted) node."""
        raise NotImplementedError

    def crash_times(
        self, rng: np.random.Generator, horizon_seconds: float
    ) -> tuple[float, ...]:
        """Absolute crash times in ``[0, horizon)`` (renewal process:
        each reboot restarts the clock)."""
        at_least("horizon_seconds", horizon_seconds)
        times: list[float] = []
        t = self.sample_time_to_failure(rng)
        while t < horizon_seconds:
            times.append(t)
            t += self.sample_time_to_failure(rng)
        return tuple(times)


@dataclass
class PoissonFaults(FaultModel):
    """Memoryless (exponential) crashes — constant hazard rate."""

    mtbf_seconds: float = 12 * 3600.0

    def __post_init__(self) -> None:
        positive("mtbf_seconds", self.mtbf_seconds, inf_ok=True)

    def sample_time_to_failure(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mtbf_seconds))


@dataclass
class TransientDiskFaults:
    """Independent per-write snapshot failures (flaky SD card).

    Not a crash model: a failed write costs the write time but leaves
    the run alive with the *previous* durable snapshot intact — the
    snapshotter retries at the next policy-due step.
    """

    write_failure_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_failure_probability < 1.0:
            raise ConfigError("write_failure_probability must be in [0, 1)")

    def write_fails(self, rng: np.random.Generator) -> bool:
        if self.write_failure_probability == 0.0:
            return False
        return bool(rng.random() < self.write_failure_probability)


class FaultInjector:
    """Kills a training run at chosen global optimizer steps.

    Feed :meth:`check` the cursor from a :meth:`Trainer.fit
    <repro.autodiff.trainer.Trainer.fit>` ``on_step`` hook (the
    recovery driver does this); when the step matches the next planned
    kill, it raises :class:`~repro.errors.FaultError`, records a
    ``fault``-category trace event and bumps the
    ``resilience.faults`` counter.  Each planned step fires exactly
    once, so a resumed run sails past the crash site.
    """

    def __init__(self, kill_steps: tuple[int, ...] | list[int]) -> None:
        steps = sorted(set(int(s) for s in kill_steps))
        if any(s < 1 for s in steps):
            raise ConfigError("kill steps must be >= 1 (steps are 1-based)")
        self._pending = steps
        self.fired: list[int] = []

    @classmethod
    def from_model(
        cls,
        model: FaultModel,
        step_seconds: float,
        total_steps: int,
        rng: np.random.Generator,
    ) -> "FaultInjector":
        """Plan kill steps by sampling ``model`` over the run's horizon.

        ``step_seconds`` prices one optimizer step; crash times round
        *up* to the step in flight when the failure strikes.
        """
        positive("step_seconds", step_seconds)
        at_least("total_steps", total_steps)
        horizon = total_steps * step_seconds
        steps = [
            min(total_steps, max(1, math.ceil(t / step_seconds)))
            for t in model.crash_times(rng, horizon)
        ]
        return cls(tuple(steps))

    @property
    def pending_steps(self) -> tuple[int, ...]:
        return tuple(self._pending)

    def check(self, step: int) -> None:
        """Raise :class:`~repro.errors.FaultError` if a kill is due."""
        if not self._pending or step < self._pending[0]:
            return
        kill = self._pending.pop(0)
        self.fired.append(kill)
        get_metrics().counter("resilience.faults").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("fault_injected", category="fault", step=step)
        raise FaultError(f"injected fault at step {step}", step=step)
