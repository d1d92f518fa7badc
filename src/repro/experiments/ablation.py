"""Ablations for the design choices DESIGN.md calls out.

* :func:`strategy_ablation` — Section VI's claim that full binomial
  checkpointing beats ``checkpoint_sequential``: ρ at equal slot budgets
  for every strategy, per chain length.
* :func:`batch_tradeoff` — Section VI's closing remark: larger batches
  raise hardware efficiency, so spending recompute (checkpointing) to
  afford a bigger batch can *lower* total epoch time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..checkpointing import available_strategies, compare_strategies
from ..edge import Device, TrainingWorkload, sweep_batch_sizes
from ..lab import Param, UnitDef, experiment
from ..obs import get_tracer
from .report import Table, render_json, table_from_payload, table_to_payload

__all__ = [
    "strategy_ablation",
    "strategy_ablation_table",
    "BatchPoint",
    "batch_tradeoff",
    "batch_tradeoff_table",
]


def strategy_ablation(
    lengths: tuple[int, ...] = (18, 34, 50, 101, 152),
    slot_budgets: tuple[int, ...] = (3, 5, 8, 13, 21),
    strategies: tuple[str, ...] | None = None,
) -> dict[tuple[int, int], dict[str, float]]:
    """ρ per strategy for every (chain length, slot budget) pair.

    ``strategies`` defaults to every registered strategy, so newly
    registered families join the ablation without code changes here.
    """
    names = available_strategies() if strategies is None else tuple(strategies)
    tracer = get_tracer()
    out: dict[tuple[int, int], dict[str, float]] = {}
    with tracer.span(
        "strategy_ablation",
        category="ablation",
        lengths=len(lengths),
        slot_budgets=len(slot_budgets),
        strategies=len(names),
    ):
        for l in lengths:
            for c in slot_budgets:
                with tracer.span("cell", category="ablation", length=l, slots=c) as cell:
                    entry = compare_strategies(l, c, strategies=names)
                    cell.set_tag("best", min(entry, key=entry.get))
                out[(l, c)] = entry
    return out


def strategy_ablation_table(
    lengths: tuple[int, ...] = (18, 34, 50, 101, 152),
    slot_budgets: tuple[int, ...] = (3, 5, 8, 13, 21),
    strategies: tuple[str, ...] | None = None,
    data: dict[tuple[int, int], dict[str, float]] | None = None,
) -> Table:
    """Render the ablation: ρ per registered strategy at equal memory.

    ``data`` short-circuits the sweep when the caller already ran it.
    """
    names = available_strategies() if strategies is None else tuple(strategies)
    if data is None:
        data = strategy_ablation(lengths, slot_budgets, names)

    def fmt(v: float) -> str:
        return f"{v:.3f}" if v != float("inf") else "inf"

    cells = []
    rows = []
    for l in lengths:
        for c in slot_budgets:
            rows.append(f"l={l},c={c}")
            entry = data[(l, c)]
            cells.append([fmt(entry[name]) for name in names])
    return Table(
        title="Strategy ablation: recompute factor at equal slot budget",
        col_labels=list(names),
        row_labels=rows,
        cells=cells,
        row_header="chain",
    )


@dataclass(frozen=True)
class BatchPoint:
    """One batch size's outcome in the throughput trade-off."""

    batch_size: int
    rho: float
    strategy: str
    efficiency: float
    epoch_seconds: float
    memory_mb: float


def batch_tradeoff(workload: TrainingWorkload, device: Device, batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32)) -> list[BatchPoint]:
    """Epoch time across batch sizes with memory-planned checkpointing."""
    out = []
    for est in sweep_batch_sizes(workload, device, batch_sizes):
        out.append(
            BatchPoint(
                batch_size=est.batch_size,
                rho=est.plan.rho,
                strategy=est.plan.strategy,
                efficiency=est.efficiency,
                epoch_seconds=est.epoch_seconds,
                memory_mb=est.plan.memory_bytes / (1024 * 1024),
            )
        )
    return out


def batch_tradeoff_table(workload: TrainingWorkload, device: Device, batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32)) -> Table:
    """Render the batch-size trade-off sweep."""
    points = batch_tradeoff(workload, device, batch_sizes)
    cells = [
        [
            f"{p.rho:.3f}",
            p.strategy,
            f"{p.efficiency:.2f}",
            f"{p.memory_mb:.0f}",
            f"{p.epoch_seconds:.0f}",
        ]
        for p in points
    ]
    return Table(
        title=f"Batch-size trade-off: {workload.model} on {device.name}",
        col_labels=["rho", "strategy", "efficiency", "memory(MB)", "epoch(s)"],
        row_labels=[str(p.batch_size) for p in points],
        cells=cells,
        row_header="batch",
    )


# -- repro.lab registration ------------------------------------------------


@experiment(
    "ablation",
    "strategy ablation across all registered strategies",
    params=(
        Param("lengths", int, default=(18, 34, 50, 101, 152), repeated=True, cli="length"),
        Param("slot_budgets", int, default=(3, 5, 8, 13, 21), repeated=True, cli="slot-budget"),
        Param(
            "strategies",
            str,
            default=None,
            repeated=True,
            choices=available_strategies(),
            cli="strategy",
        ),
    ),
    renderers={
        "ascii": lambda doc: table_from_payload(doc["table"]).render(),
        "csv": lambda doc: table_from_payload(doc["table"]).to_csv(),
        "json": render_json,
    },
    default_units=(UnitDef({}, (("ablation_strategies.txt", "ascii"),)),),
)
def _ablation_spec(params, inputs):
    lengths = tuple(params["lengths"])
    budgets = tuple(params["slot_budgets"])
    names = (
        tuple(params["strategies"])
        if params["strategies"]
        else available_strategies()
    )
    data = strategy_ablation(lengths, budgets, names)
    return {
        "lengths": list(lengths),
        "slot_budgets": list(budgets),
        "strategies": list(names),
        "table": table_to_payload(
            strategy_ablation_table(lengths, budgets, names, data=data)
        ),
        "records": [
            {
                "length": l,
                "slots": c,
                "strategy": name,
                "rho": None if rho == float("inf") else rho,
            }
            for (l, c), entry in data.items()
            for name, rho in entry.items()
        ],
    }
