"""A schedule-aware training loop.

:class:`Trainer` is the one training loop: the in-situ student
(:func:`repro.studentteacher.train_student`), crash recovery and the
examples all train through :meth:`Trainer.fit`.  It plans the checkpoint
schedule once (store-all when the budget allows, any registered strategy
otherwise), iterates epochs and batches, steps the optimizer, bumps
per-step layers (dropout), and records history and the live-memory
high-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..checkpointing import Schedule, get_strategy, slots_for_rho
from ..checkpointing.planner import max_slots_in_budget
from ..errors import ConfigError, MemoryBudgetError, at_least
from ..obs import get_metrics, get_tracer
from .blocks import DropoutLayer
from .data import Dataset, batches
from .executor import run_schedule
from .loss import accuracy, softmax_cross_entropy
from .network import SequentialNet
from .optim import Optimizer

__all__ = ["TrainerConfig", "EpochRecord", "FitCursor", "Trainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Loop behaviour.

    Memory policy, by priority: explicit ``schedule`` > explicit
    ``slots`` > ``rho`` target > ``activation_budget_bytes`` (per batch)
    > store-all (no schedule).  ``strategy`` names which registered
    checkpoint family builds the schedule once a slot budget is resolved
    (default ``revolve``, the optimum); any name accepted by
    :func:`repro.checkpointing.get_strategy` works.
    """

    epochs: int = 10
    batch_size: int = 16
    shuffle_seed: int = 0
    #: Registered strategy family used whenever a schedule is built.
    strategy: str | None = None
    #: Explicit checkpoint slot budget (Revolve convention, >= 1).
    slots: int | None = None
    rho: float | None = None
    activation_budget_bytes: int | None = None
    schedule: Schedule | None = None
    early_stop_loss: float | None = None
    #: Gradient accumulation: split each batch into micro-batches of this
    #: size, sum gradients, step once.  The standard alternative to
    #: checkpointing — activation memory scales with the micro-batch while
    #: the *optimizer* still sees the full batch.  Composable with any
    #: schedule (the schedule then runs per micro-batch).  Exact only for
    #: batch-independent layers: BatchNorm computes statistics per
    #: micro-batch, so accumulated BN gradients differ from full-batch
    #: ones (checkpointing has no such caveat — a genuine advantage the
    #: ablation tests pin down).
    micro_batch_size: int | None = None

    def __post_init__(self) -> None:
        at_least("shuffle_seed", self.shuffle_seed)
        for name, lo in (("epochs", 1), ("batch_size", 1), ("slots", 1), ("rho", 1.0),
                         ("activation_budget_bytes", 0), ("early_stop_loss", 0)):
            if getattr(self, name) is not None:
                at_least(name, getattr(self, name), lo)
        if self.strategy is not None:
            get_strategy(self.strategy)  # fail fast on unknown names
        if self.micro_batch_size is not None and not (
            1 <= self.micro_batch_size <= self.batch_size
        ):
            raise ConfigError("micro_batch_size must be in [1, batch_size]")


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch measurements."""

    epoch: int
    mean_loss: float
    peak_bytes: int


@dataclass(frozen=True)
class FitCursor:
    """Exact position inside a :meth:`Trainer.fit` run.

    Captures everything the loop itself carries between optimizer steps:
    the epoch, how many batches of that epoch are already done, the
    global step counter, and the partial-epoch accumulators.  Because
    the per-epoch batch order is a pure function of
    ``(shuffle_seed, epoch)``, a cursor plus the model/optimizer state
    is sufficient to resume a run bit-identically — no replay of earlier
    epochs is needed.  :mod:`repro.resilience` serializes cursors inside
    durable training snapshots.
    """

    epoch: int = 0
    #: batches of ``epoch`` already completed (the next batch index).
    batch: int = 0
    #: global optimizer steps completed (drives stochastic layers).
    step: int = 0
    #: partial-epoch accumulators, so mid-epoch resumes reproduce the
    #: epoch's mean loss and peak exactly.
    loss_sum: float = 0.0
    peak_bytes: int = 0

    def __post_init__(self) -> None:
        for name in ("epoch", "batch", "step", "peak_bytes"):
            at_least(name, getattr(self, name))


@dataclass
class Trainer:
    """Drives a :class:`SequentialNet` with a chosen memory strategy."""

    net: SequentialNet
    optimizer: Optimizer
    config: TrainerConfig = field(default_factory=TrainerConfig)
    loss_fn: object = softmax_cross_entropy
    history: list[EpochRecord] = field(default_factory=list)
    _schedule: Schedule | None = field(default=None, init=False)
    _step: int = field(default=0, init=False)

    def _resolve_schedule(self, sample_x: np.ndarray) -> Schedule | None:
        cfg = self.config
        if cfg.schedule is not None:
            return cfg.schedule
        if (
            cfg.strategy is None
            and cfg.slots is None
            and cfg.rho is None
            and cfg.activation_budget_bytes is None
        ):
            return None  # store-all train_step, no executor overhead
        l = len(self.net)
        strat = get_strategy(cfg.strategy or "revolve")
        if cfg.slots is not None:
            c = min(cfg.slots, max(1, l - 1))
        elif cfg.rho is not None:
            # Slot budget the optimal schedule needs for the ρ target;
            # non-revolve strategies then compete at that same budget.
            c = slots_for_rho(l, cfg.rho)
        elif cfg.activation_budget_bytes is not None:
            sizes = self.net.activation_bytes(sample_x)
            slot = max(sizes[1:]) if len(sizes) > 1 else sizes[0]
            # Conservative: charge every slot at the largest activation.
            try:
                c = max_slots_in_budget(cfg.activation_budget_bytes, 0.0, float(slot))
            except MemoryBudgetError:
                raise MemoryBudgetError(
                    f"activation budget {cfg.activation_budget_bytes} B cannot "
                    f"hold one checkpoint slot ({slot} B) plus the cursor"
                ) from None
            c = min(c, max(1, l - 1))
        else:
            c = max(1, l - 1)  # strategy named without a size target
        if not strat.feasible(l, c):
            raise MemoryBudgetError(
                f"strategy {strat.name!r} cannot reverse a {l}-step chain "
                f"within {c} checkpoint slots"
            )
        return strat.schedule(l, c)

    def _bump_step(self) -> None:
        self._step += 1
        for layer in self.net.layers:
            if isinstance(layer, DropoutLayer):
                layer.set_step(self._step)

    def _compute(
        self,
        xb: np.ndarray,
        yb: np.ndarray,
        schedule: Schedule | None,
        on_action=None,
    ):
        """One optimizer step's (loss, grads, peak), micro-batched if set."""
        micro = self.config.micro_batch_size
        if micro is None or micro >= len(xb):
            if schedule is None:
                return self.net.train_step(xb, yb, self.loss_fn)
            res = run_schedule(self.net, schedule, xb, yb, self.loss_fn, on_step=on_action)
            return res.loss, res.grads, res.peak_bytes
        # Gradient accumulation: per-micro-batch mean losses/gradients are
        # recombined with n_i/N weights, reproducing the full-batch values.
        n = len(xb)
        total_loss = 0.0
        acc: dict = {}
        peak = 0
        for start in range(0, n, micro):
            xs, ys = xb[start : start + micro], yb[start : start + micro]
            w = len(xs) / n
            if schedule is None:
                loss, grads, p = self.net.train_step(xs, ys, self.loss_fn)
            else:
                res = run_schedule(self.net, schedule, xs, ys, self.loss_fn, on_step=on_action)
                loss, grads, p = res.loss, res.grads, res.peak_bytes
            total_loss += w * loss
            peak = max(peak, p)
            for k, g in grads.items():
                if k in acc:
                    acc[k] += w * g
                else:
                    acc[k] = w * g
        return total_loss, acc, peak

    def fit(
        self,
        data: Dataset,
        *,
        cursor: FitCursor | None = None,
        on_step=None,
        on_action=None,
    ) -> list[EpochRecord]:
        """Train; returns (and appends to) the epoch history.

        Each epoch's batch order is a pure function of
        ``(shuffle_seed, epoch)``, so any position in the run is
        reproducible without replaying earlier epochs.  ``cursor``
        resumes from such a position (restore the model/optimizer state
        first — see :mod:`repro.resilience`); ``on_step`` is called after
        every optimizer step as ``on_step(cursor, loss)`` with the
        :class:`FitCursor` a resume should pass, and may raise (e.g.
        :class:`~repro.errors.FaultError` from a fault injector) to
        abort the run.  ``on_action`` is a schedule-VM step callback
        (:class:`~repro.engine.stats.StepStats` per executed action),
        forwarded to the engine whenever a checkpoint schedule drives
        the batch computation; with the store-all fast path (no
        schedule) there are no actions and it is never called.

        Runs under the process tracer: one ``train``-category span for
        the fit, nested ``epoch``/``batch`` spans, and the shared
        metrics gauges ``trainer.loss`` / ``trainer.peak_bytes`` plus
        counters ``trainer.epochs`` / ``trainer.batches``.
        """
        start = cursor or FitCursor()
        self._step = start.step
        sample = min(self.config.micro_batch_size or self.config.batch_size, self.config.batch_size)
        schedule = self._resolve_schedule(data.x[:sample])
        self._schedule = schedule
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span(
            "fit",
            category="train",
            strategy=self.schedule_strategy,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            start_epoch=start.epoch,
        ):
            for epoch in range(start.epoch, self.config.epochs):
                resuming = epoch == start.epoch
                skip = start.batch if resuming else 0
                total = start.loss_sum if resuming else 0.0
                nb = skip
                peak = start.peak_bytes if resuming else 0
                # One independent generator per epoch: epoch k's batch
                # order needs no replay of epochs 0..k-1.
                rng = np.random.default_rng((self.config.shuffle_seed, epoch))
                with tracer.span("epoch", category="epoch", epoch=epoch) as ep_span:
                    for bi, (xb, yb) in enumerate(
                        batches(data, self.config.batch_size, rng)
                    ):
                        if bi < skip:
                            continue
                        self._bump_step()
                        with tracer.span(
                            "batch", category="batch", step=self._step, size=len(xb)
                        ) as b_span:
                            loss, grads, step_peak = self._compute(
                                xb, yb, schedule, on_action
                            )
                            self.optimizer.step(grads)
                            b_span.set_tag("loss", loss)
                        metrics.counter("trainer.batches").inc()
                        total += loss
                        nb += 1
                        peak = max(peak, step_peak)
                        if on_step is not None:
                            on_step(
                                FitCursor(
                                    epoch=epoch,
                                    batch=bi + 1,
                                    step=self._step,
                                    loss_sum=total,
                                    peak_bytes=peak,
                                ),
                                loss,
                            )
                    record = EpochRecord(
                        epoch=epoch, mean_loss=total / max(1, nb), peak_bytes=peak
                    )
                    ep_span.set_tag("mean_loss", record.mean_loss)
                    ep_span.set_tag("peak_bytes", record.peak_bytes)
                metrics.counter("trainer.epochs").inc()
                metrics.gauge("trainer.loss").set(record.mean_loss)
                metrics.gauge("trainer.peak_bytes").max(record.peak_bytes)
                self.history.append(record)
                if (
                    self.config.early_stop_loss is not None
                    and record.mean_loss <= self.config.early_stop_loss
                ):
                    break
        return self.history

    # -- reporting ------------------------------------------------------
    @property
    def schedule_strategy(self) -> str:
        """Which memory strategy the trainer resolved to."""
        if self._schedule is None:
            return "store_all"
        return self._schedule.strategy

    @property
    def peak_bytes(self) -> int:
        return max((r.peak_bytes for r in self.history), default=0)

    def evaluate(self, data: Dataset) -> float:
        """Top-1 accuracy on a dataset (recorded on ``trainer.accuracy``)."""
        with get_tracer().span("evaluate", category="train", samples=len(data.x)):
            acc = accuracy(self.net.forward(data.x), data.y)
        get_metrics().gauge("trainer.accuracy").set(acc)
        return acc
