"""Planning on real linearized block chains (interiors charged)."""

import pytest

from repro.checkpointing import plan_real_chain, working_set_bytes
from repro.errors import MemoryBudgetError
from repro.graph import homogenize, linearize
from repro.memory import account
from repro.units import GB, MB
from repro.zoo import build_resnet, tiny_residual


@pytest.fixture(scope="module")
def r18_chain():
    return linearize(build_resnet(18, image_size=224))


class TestWorkingSet:
    def test_positive_and_batch_scaled(self, r18_chain):
        w1 = working_set_bytes(r18_chain, 1)
        w4 = working_set_bytes(r18_chain, 4)
        assert w1 > 0
        assert w4 == 4 * w1

    def test_dominated_by_early_blocks(self, r18_chain):
        """The worst working set is an early high-resolution block."""
        acts = [r18_chain.input_bytes] + [s.act_bytes for s in r18_chain.stages]
        sets = [
            acts[i] + s.interior_bytes + s.act_bytes
            for i, s in enumerate(r18_chain.stages)
        ]
        assert sets.index(max(sets)) < len(sets) // 2


class TestPlanRealChain:
    def test_plan_fits_and_is_conservative(self, r18_chain):
        plan = plan_real_chain(r18_chain, budget_bytes=GB, batch_size=4)
        assert plan.fits
        assert plan.peak_bytes <= GB
        assert plan.rho >= 1.0

    def test_generous_budget_no_recompute(self, r18_chain):
        plan = plan_real_chain(r18_chain, budget_bytes=16 * GB, batch_size=1)
        assert plan.extra_forward_cost == pytest.approx(0.0)
        assert plan.rho == pytest.approx(1.0)

    def test_tighter_budget_costs_more_rho(self, r18_chain):
        acct = account(build_resnet(18, image_size=224))
        base = acct.fixed_bytes + working_set_bytes(r18_chain, 8)
        loose = plan_real_chain(r18_chain, budget_bytes=int(base + 8 * 40 * MB), batch_size=8)
        tight = plan_real_chain(r18_chain, budget_bytes=int(base + 8 * 6 * MB), batch_size=8)
        assert tight.extra_forward_cost >= loose.extra_forward_cost
        assert tight.peak_snapshot_bytes <= loose.peak_snapshot_bytes

    def test_agrees_with_aggregate_accounting(self, r18_chain):
        """At 2 GB / batch 8 store-all fits, and the plan's fixed cost is
        the aggregate account's.  Homogenizing preserves the activation
        total (the chain reports its input separately); only the
        structure is idealized."""
        g = build_resnet(18, image_size=224)
        plan = plan_real_chain(r18_chain, budget_bytes=2 * GB, batch_size=8)
        assert plan.fits
        assert plan.rho == 1.0
        assert plan.fixed_bytes == account(g).fixed_bytes
        lin = homogenize(g, depth=18)
        real_total = r18_chain.total_act_bytes + r18_chain.input_bytes
        assert abs(lin.total_act_bytes - real_total) <= lin.length

    def test_pressure_forces_cheap_recompute(self, r18_chain):
        """8 MB a sample above the fixed + working-set floor forces
        recomputation, and it stays cheap (rho < 2) — the paper's core
        point."""
        floor = account(build_resnet(18, image_size=224)).fixed_bytes + working_set_bytes(
            r18_chain, 8
        )
        plan = plan_real_chain(r18_chain, budget_bytes=int(floor + 8 * 8 * MB), batch_size=8)
        assert plan.fits
        assert plan.extra_forward_cost > 0
        assert plan.rho < 2.0

    def test_snapshot_budget_respected(self, r18_chain):
        plan = plan_real_chain(r18_chain, budget_bytes=GB, batch_size=4)
        assert plan.peak_snapshot_bytes <= plan.snapshot_budget

    def test_hopeless_budget_raises(self, r18_chain):
        with pytest.raises(MemoryBudgetError):
            plan_real_chain(r18_chain, budget_bytes=200 * MB, batch_size=8)

    def test_custom_fixed_bytes(self, r18_chain):
        plan = plan_real_chain(r18_chain, budget_bytes=GB, fixed_bytes=0, batch_size=1)
        assert plan.fixed_bytes == 0
        assert plan.peak_bytes == plan.peak_snapshot_bytes + plan.working_set

    def test_small_residual_graph(self):
        chain = linearize(tiny_residual())
        plan = plan_real_chain(chain, budget_bytes=10 * MB, batch_size=2)
        assert plan.fits
        assert plan.schedule.length == chain.length

    def test_batch_validation(self, r18_chain):
        with pytest.raises(ValueError):
            plan_real_chain(r18_chain, budget_bytes=GB, batch_size=0)
