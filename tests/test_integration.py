"""Cross-module integration: the library's end-to-end flows."""

import numpy as np
import pytest

from repro.autodiff import DenseLayer, ReLULayer, SequentialNet, run_schedule
from repro.checkpointing import (
    ChainSpec,
    plan_training,
    revolve_schedule,
    simulate,
    slots_for_rho,
)
from repro.edge import ODROID_XU4, TrainingWorkload, estimate_epoch
from repro.graph import homogenize
from repro.memory import account, memory_model_for
from repro.units import GB
from repro.zoo import build_resnet


class TestPaperPipeline:
    """Graph -> memory model -> homogenized chain -> plan -> schedule."""

    @pytest.fixture(scope="class")
    def r50(self):
        return build_resnet(50)

    def test_full_figure1_point(self, r50):
        acct = account(r50)
        chain = homogenize(r50, depth=50)
        plan = plan_training(
            l=50,
            fixed_bytes=acct.fixed_bytes,
            slot_bytes=8 * chain.act_bytes,
            budget_bytes=GB,  # force checkpointing with a 1 GB budget
        )
        assert plan.strategy == "revolve"
        sch = revolve_schedule(50, plan.slots)
        spec = ChainSpec.from_linear_chain(chain)
        stats = simulate(sch, spec)
        # The executed schedule achieves exactly the planned rho.
        assert stats.recompute_factor(spec) == pytest.approx(plan.rho)
        # And its byte-weighted peak respects the planner's accounting.
        measured = acct.fixed_bytes + 8 * (stats.peak_bytes)
        assert measured <= plan.memory_bytes + 8 * chain.act_bytes

    def test_memory_model_to_edge_plan(self, r50):
        model = memory_model_for(lambda s: build_resnet(50, image_size=s))
        workload = TrainingWorkload(
            model="ResNet50",
            chain_length=50,
            slot_act_bytes_per_sample=model.account_ref.act_bytes_per_sample // 50,
            fixed_bytes=model.fixed_bytes,
            flops_per_sample=float(r50.total_flops_per_sample()),
            n_images=1000,
            batch_size=16,
        )
        est = estimate_epoch(workload, ODROID_XU4)
        assert est.plan.memory_bytes <= ODROID_XU4.mem_bytes
        assert est.epoch_seconds > 0


class TestRealChainCheckpointing:
    """Checkpoint a real residual network's block chain."""

    def test_resnet_block_chain_schedulable(self):
        # ResNet-18 at 64 px cut at its block boundaries: per-stage output
        # bytes and forward FLOPs, backward at twice the forward.
        fwd = (
            19267584.0, 131072.0, 65536.0, 147456.0, 37847040.0, 16384.0, 37847040.0,
            16384.0, 29425664.0, 8192.0, 37797888.0, 8192.0, 29392896.0, 4096.0,
            37773312.0, 4096.0, 29376512.0, 2048.0, 37761024.0, 2048.0, 2048.0, 1.0,
            1024000.0,
        )
        spec = ChainSpec(
            name="ResNet18",
            act_bytes=(49152,) + (262144,) * 3 + (65536,) * 5 + (32768,) * 4
            + (16384,) * 4 + (8192,) * 4 + (2048, 2048, 4000),
            fwd_cost=fwd,
            bwd_cost=tuple(2.0 * f for f in fwd),
        )
        sch = revolve_schedule(spec.length, 3)
        stats = simulate(sch, spec)
        assert stats.peak_slot_bytes < spec.store_all_bytes

    def test_planner_rho_realized_on_real_training(self):
        """slots_for_rho -> schedule -> real NumPy training: the measured
        advance count stays within the rho budget."""
        rng = np.random.default_rng(0)
        depth = 12
        layers = []
        for i in range(depth - 1):
            layers.append(DenseLayer(8, 8, rng, name=f"fc{i}"))
        layers.append(DenseLayer(8, 2, rng, name="head"))
        net = SequentialNet(layers)
        rho = 1.5
        slots = slots_for_rho(depth, rho)
        sch = revolve_schedule(depth, slots)
        x = rng.normal(size=(4, 8))
        y = rng.integers(0, 2, size=4)
        res = run_schedule(net, sch, x, y)
        extra = res.forward_steps - (depth - 1)
        assert extra <= (rho - 1.0) * 2 * depth + 1e-9


class TestConsistencyAcrossSubsystems:
    def test_three_memory_paths_agree(self):
        """account(), homogenize() and the planner describe the same
        store-all footprint."""
        g = build_resnet(34, image_size=112)
        acct = account(g)
        chain = homogenize(g, depth=34)
        k = 4
        from repro.checkpointing import memory_for_slots

        planner_total = memory_for_slots(33, acct.fixed_bytes, k * chain.act_bytes)
        table_total = acct.total_bytes(k)
        # Equal up to the homogenization's integer division remainder.
        assert planner_total == pytest.approx(table_total, rel=0.001)

    def test_simulator_and_executor_agree_on_forward_counts(self):
        rng = np.random.default_rng(1)
        depth, slots = 10, 3
        layers = [DenseLayer(6, 6, rng, name=f"f{i}") for i in range(depth - 1)]
        layers.append(DenseLayer(6, 2, rng, name="head"))
        net = SequentialNet(layers)
        sch = revolve_schedule(depth, slots)
        stats = simulate(sch)
        res = run_schedule(net, sch, rng.normal(size=(3, 6)), rng.integers(0, 2, size=3))
        assert res.forward_steps == stats.forward_steps
        assert res.replay_steps == stats.replay_steps
