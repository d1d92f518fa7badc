"""Ablation experiments: strategy dominance and the batch trade-off."""

import math

import pytest

from repro.edge import ODROID_XU4, TrainingWorkload
from repro.experiments import (
    batch_tradeoff,
    batch_tradeoff_table,
    strategy_ablation,
    strategy_ablation_table,
)
from repro.units import MB


class TestStrategyAblation:
    def test_revolve_dominates_everywhere(self):
        data = strategy_ablation(
            lengths=(18, 34, 50, 101, 152),
            slot_budgets=(2, 3, 5, 8, 13, 21, 34),
            strategies=("revolve", "uniform", "sqrt"),
        )
        for rhos in data.values():
            assert math.isfinite(rhos["revolve"])  # feasible down to one slot
            assert rhos["revolve"] <= rhos["uniform"] + 1e-12
            assert rhos["revolve"] <= rhos["sqrt"] + 1e-12
        # At 5 slots on the deepest chain uniform cannot run at all, while
        # revolve pays < 2.5x; at 34 slots the order is revolve, uniform, sqrt.
        tight, comfy = data[(152, 5)], data[(152, 34)]
        assert math.isinf(tight["uniform"]) and tight["revolve"] < 2.5
        assert comfy["revolve"] <= comfy["uniform"] <= comfy["sqrt"]

    def test_gap_widens_at_small_budgets(self):
        """Where uniform is feasible, its overhead gap vs revolve shrinks
        as the budget grows."""
        data = strategy_ablation(lengths=(152,), slot_budgets=(21, 34, 55))
        gaps = []
        for c in (21, 34, 55):
            rhos = data[(152, c)]
            if math.isfinite(rhos["uniform"]):
                gaps.append(rhos["uniform"] - rhos["revolve"])
        assert gaps == sorted(gaps, reverse=True)

    def test_table_renders(self):
        text = strategy_ablation_table(lengths=(18,), slot_budgets=(3,)).render()
        assert "revolve" in text and "uniform" in text


def _workload():
    return TrainingWorkload(
        model="ResNet50",
        chain_length=50,
        slot_act_bytes_per_sample=3 * MB,
        fixed_bytes=390 * MB,
        flops_per_sample=8e9,
        n_images=5_000,
    )


class TestBatchTradeoff:
    def test_points_have_plan_fields(self):
        pts = batch_tradeoff(_workload(), ODROID_XU4)
        assert pts
        for p in pts:
            assert p.rho >= 1.0
            assert 0 < p.efficiency <= 1.0
            assert p.memory_mb <= ODROID_XU4.mem_bytes / MB + 1

    def test_large_batch_wins_despite_rho(self):
        """Section VI closing remark quantified."""
        pts = {p.batch_size: p for p in batch_tradeoff(_workload(), ODROID_XU4)}
        assert pts[32].rho > 1.0  # needed checkpointing
        assert pts[32].epoch_seconds < pts[1].epoch_seconds

    def test_table_renders(self):
        text = batch_tradeoff_table(_workload(), ODROID_XU4).render()
        assert "epoch" in text

    def test_resnet50_on_odroid(self):
        """``repro batch-tradeoff`` defaults: batch 32 needs Revolve and
        every doubling of the batch shortens the epoch."""
        from repro import lab

        table = lab.compute_payload("batch-tradeoff")["table"]
        rows = dict(zip(table["row_labels"], table["cells"]))
        assert list(rows) == ["1", "2", "4", "8", "16", "32"]
        rho, strategy, _, _, _ = rows["32"]
        assert float(rho) > 1.0 and strategy == "revolve"
        times = [float(cells[4]) for cells in rows.values()]
        assert times == sorted(times, reverse=True)
        assert all(float(cells[3]) <= ODROID_XU4.mem_bytes / MB + 1 for cells in rows.values())
