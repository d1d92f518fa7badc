"""The planner: ρ ↔ slots ↔ bytes round trips and strategy choices."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    FRONTIER_FAMILIES,
    ChainSpec,
    compare_strategies,
    extra_forwards,
    max_slots_in_budget,
    measure_frontier,
    memory_for_slots,
    plan_training,
    rho_for_budget,
    rho_for_slots,
    slots_for_rho,
    slots_for_rhos,
)
from repro.edge.storage import EMMC, LOSSLESS, SD_CARD
from repro.errors import MemoryBudgetError, PlanningError
from repro.memory import calibrated_models
from repro.units import GB, MB


class TestRhoSlots:
    def test_rho_one_needs_store_all(self):
        assert slots_for_rho(50, 1.0) == 49

    def test_rho_formula(self):
        l, c = 50, 5
        expected = 1.0 + extra_forwards(l, c) / (2 * l)
        assert rho_for_slots(l, c) == pytest.approx(expected)

    def test_bwd_ratio_dilutes_overhead(self):
        # With backward 2x forward, recompute is a smaller share of time.
        assert rho_for_slots(50, 5, bwd_ratio=2.0) < rho_for_slots(50, 5, bwd_ratio=1.0)

    @given(l=st.integers(2, 152), rho=st.floats(1.0, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_rho(self, rho, l):
        """slots_for_rho gives the minimal c achieving rho (up to float
        rounding when rho lands exactly on the achievable lattice)."""
        c = slots_for_rho(l, rho)
        assert rho_for_slots(l, c) <= rho + 1e-12
        if c > 1:
            assert rho_for_slots(l, c - 1) > rho - 1e-9

    def test_rho_below_one_rejected(self):
        with pytest.raises(PlanningError):
            slots_for_rho(10, 0.99)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(PlanningError, match="recompute factor must be finite"):
            slots_for_rho(13, rho)
        with pytest.raises(PlanningError, match="recompute factor must be finite"):
            slots_for_rhos(13, [1.5, rho])

    def test_bad_bwd_ratio(self):
        with pytest.raises(PlanningError):
            rho_for_slots(10, 2, bwd_ratio=-1)


class TestMemoryMaps:
    def test_memory_for_slots_formula(self):
        assert memory_for_slots(5, fixed_bytes=100.0, slot_bytes=10.0) == 160.0

    def test_store_all_consistency(self):
        """c = l-1 recovers the full Tables footprint: fixed + l slots."""
        l, fixed, slot = 50, 1000.0, 10.0
        assert memory_for_slots(l - 1, fixed, slot) == fixed + l * slot

    def test_max_slots_boundary(self):
        c = max_slots_in_budget(200.0, fixed_bytes=100.0, slot_bytes=10.0)
        assert memory_for_slots(c, 100.0, 10.0) <= 200.0
        assert memory_for_slots(c + 1, 100.0, 10.0) > 200.0

    def test_max_slots_raises_when_hopeless(self):
        with pytest.raises(MemoryBudgetError):
            max_slots_in_budget(100.0, fixed_bytes=95.0, slot_bytes=10.0)

    def test_negative_slots_rejected(self):
        with pytest.raises(PlanningError):
            memory_for_slots(-1, 0.0, 1.0)


class TestCurves:
    @staticmethod
    def memory_at(l, fixed, slot, rho):
        """One Figure 1 point: peak bytes at the minimal slots for ``rho``."""
        return memory_for_slots(slots_for_rho(l, rho), fixed, slot)

    def test_monotone_nonincreasing_in_rho(self):
        mems = [self.memory_at(152, 1e9, 1e7, rho) for rho in (1.0, 1.2, 1.5, 2.0, 3.0)]
        assert mems == sorted(mems, reverse=True)

    def test_rho_one_point_is_store_all(self):
        l, fixed, slot = 101, 5e8, 2e7
        assert self.memory_at(l, fixed, slot, 1.0) == fixed + l * slot
        assert extra_forwards(l, slots_for_rho(l, 1.0)) == 0

    def test_paper_figure1b_shape(self):
        """Figure 1b headline: at rho=1 ResNet-50+ exceed 2 GB at batch 8;
        by rho=1.6 every model fits."""
        cal = calibrated_models()
        for depth, must_fit_at_1 in ((18, True), (34, True), (50, False), (101, False), (152, False)):
            m = cal[depth]
            slot = 8 * m.act224_bytes / depth
            at1 = self.memory_at(depth, m.fixed_bytes, slot, 1.0)
            assert (at1 <= 2 * GB) == must_fit_at_1
            at16 = self.memory_at(depth, m.fixed_bytes, slot, 1.6)
            assert at16 <= 2 * GB

    def test_rho_for_budget_inverse(self):
        l, fixed, slot = 152, 9e8, 3e7
        point = rho_for_budget(l, fixed, slot, budget_bytes=2 * GB)
        assert point.memory_bytes <= 2 * GB
        assert point.rho >= 1.0


class TestPlanTraining:
    def test_store_all_when_it_fits(self):
        plan = plan_training(l=18, fixed_bytes=100 * MB, slot_bytes=MB, budget_bytes=GB)
        assert plan.strategy == "store_all"
        assert plan.rho == 1.0
        assert plan.fits

    def test_revolve_when_tight(self):
        plan = plan_training(l=152, fixed_bytes=GB, slot_bytes=30 * MB, budget_bytes=2 * GB)
        assert plan.strategy == "revolve"
        assert plan.rho > 1.0
        assert plan.fits
        assert plan.memory_bytes < plan.store_all_bytes

    def test_uniform_never_beats_revolve(self):
        plan = plan_training(l=152, fixed_bytes=GB, slot_bytes=30 * MB, budget_bytes=2 * GB)
        assert plan.uniform_rho is None or plan.uniform_rho >= plan.rho

    def test_savings_fraction(self):
        plan = plan_training(l=152, fixed_bytes=GB, slot_bytes=30 * MB, budget_bytes=2 * GB)
        assert 0.0 < plan.savings_fraction < 1.0

    def test_impossible_budget_raises(self):
        with pytest.raises(MemoryBudgetError):
            plan_training(l=50, fixed_bytes=3 * GB, slot_bytes=MB, budget_bytes=2 * GB)


class TestCompareStrategies:
    def test_revolve_dominates(self):
        """Section VI: optimal binomial <= uniform <= sqrt at equal memory."""
        for l in (18, 50, 152):
            for c in (5, 8, 13, 21, 34):
                rhos = compare_strategies(l, c)
                assert rhos["revolve"] <= rhos["uniform"] + 1e-12
                if math.isfinite(rhos["sqrt"]) and math.isfinite(rhos["uniform"]):
                    assert rhos["uniform"] <= rhos["sqrt"] + 1e-12

    def test_small_budget_infeasible_for_uniform(self):
        rhos = compare_strategies(152, 3)
        assert math.isinf(rhos["uniform"])
        assert math.isfinite(rhos["revolve"])  # revolve always works at c>=1

    def test_store_all_flag(self):
        assert compare_strategies(10, 9)["store_all"] == 1.0
        assert math.isinf(compare_strategies(10, 8)["store_all"])

    def test_budget_validation(self):
        with pytest.raises(PlanningError):
            compare_strategies(10, 0)


@st.composite
def hetero_chains(draw):
    """Random heterogeneous chain: per-step costs and activation sizes."""
    l = draw(st.integers(2, 20))
    return ChainSpec(
        name=f"hetero{l}",
        act_bytes=tuple(draw(st.lists(st.integers(1, 4 << 20), min_size=l + 1, max_size=l + 1))),
        fwd_cost=tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=l, max_size=l))),
        bwd_cost=tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=l, max_size=l))),
    )


class TestMeasureFrontier:
    def test_families_come_back_in_the_order_given(self):
        families = ("joint_zip", "revolve", "disk_revolve")
        pts = measure_frontier(ChainSpec.homogeneous(8), 2, families)
        assert tuple(p.strategy for p in pts) == families

    def test_slots_are_the_count_each_family_planned_with(self):
        """revolve/disk_revolve run at min(c, l-1) and report it; the
        joint families plan at c itself."""
        pts = measure_frontier(ChainSpec.homogeneous(5), 8, FRONTIER_FAMILIES)
        assert {p.strategy: p.slots for p in pts} == {
            "revolve": 4,
            "disk_revolve": 4,
            "revolve_zip": 4,
            "joint_time": 8,
            "joint_energy": 8,
            "joint_zip": 8,
        }

    def test_revolve_zip_reports_its_walked_slot_count(self):
        spec = ChainSpec.homogeneous(30, act_bytes=1000)
        pts = {p.strategy: p for p in measure_frontier(spec, 3, ("revolve", "revolve_zip"))}
        zipped, base = pts["revolve_zip"], pts["revolve"]
        assert zipped.slots > base.slots == 3
        assert zipped.peak_memory_bytes <= base.peak_memory_bytes
        assert zipped.extra_forwards < base.extra_forwards

    def test_pure_families_carry_the_codec_defaults(self):
        (p,) = measure_frontier(ChainSpec.homogeneous(40), 2, ("disk_revolve",))
        assert (p.codec, p.bytes_saved, p.fidelity_loss) == ("none", 0, 0.0)
        assert p.disk_writes > 0 and p.peak_disk_bytes > 0

    @pytest.mark.parametrize("families", [(), ("revolve", "hetero"), ("joint",)])
    def test_unknown_or_empty_families_rejected(self, families):
        with pytest.raises(PlanningError, match="families"):
            measure_frontier(ChainSpec.homogeneous(6), 2, families)

    @pytest.mark.parametrize("unit_seconds", [0.0, -1.0, math.nan, math.inf])
    def test_bad_unit_seconds_rejected(self, unit_seconds):
        with pytest.raises(PlanningError, match="unit_seconds"):
            measure_frontier(ChainSpec.homogeneous(6), 2, ("revolve",), unit_seconds=unit_seconds)

    def test_slot_budget_validated(self):
        with pytest.raises(PlanningError):
            measure_frontier(ChainSpec.homogeneous(6), 0, ("revolve",))

    @settings(max_examples=60, deadline=None)
    @given(
        spec=hetero_chains(),
        c=st.integers(1, 8),
        disk=st.sampled_from((SD_CARD, EMMC)),
        unit_seconds=st.sampled_from((1e-9, 1e-3, 1e-1)),
    )
    def test_dominance_envelope_and_lossless_collapse(self, spec, c, disk, unit_seconds):
        pts = {
            p.strategy: p
            for p in measure_frontier(spec, c, FRONTIER_FAMILIES, disk, unit_seconds=unit_seconds)
        }
        pure = (pts["revolve"], pts["disk_revolve"])
        best_wall = min(p.wall_seconds for p in pure)
        best_joules = min(p.energy_joules for p in pure)
        assert pts["joint_time"].wall_seconds <= best_wall * (1 + 1e-9)
        assert pts["joint_energy"].energy_joules <= best_joules * (1 + 1e-9)
        assert pts["revolve_zip"].peak_memory_bytes <= pts["revolve"].peak_memory_bytes

        lossless = {
            p.strategy: p
            for p in measure_frontier(
                spec, c, FRONTIER_FAMILIES, disk, codec=LOSSLESS, unit_seconds=unit_seconds
            )
        }
        for zipped, twin in (("revolve_zip", "revolve"), ("joint_zip", "joint_time")):
            z, t = lossless[zipped], lossless[twin]
            assert (z.peak_bytes, z.wall_seconds) == (t.peak_bytes, t.wall_seconds)
