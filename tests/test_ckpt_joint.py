"""Joint rematerialization+paging planner: collapse properties, exact
equivalence with the pure families it generalizes, planned==measured
identities, program-IR round-trips and the Figure-1 dominance claim."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    ChainSpec,
    EnergyObjective,
    TimeObjective,
    UnitCostObjective,
    disk_revolve_cost,
    joint_cost,
    joint_frontier,
    joint_plan,
    joint_schedule,
    opt_forwards,
    simulate,
    simulate_tiered,
    tier_of_slot,
    validate,
)
from repro.edge.storage import EMMC, SD_CARD
from repro.errors import PlanningError, ScheduleError

BIG = 1e15


def unit_spec(l: int) -> ChainSpec:
    return ChainSpec.homogeneous(l)


def random_spec(rng, l: int) -> ChainSpec:
    acts = tuple(rng.randint(1, 1 << 20) for _ in range(l + 1))
    fwd = tuple(float(rng.randint(1, 1000)) for _ in range(l))
    return ChainSpec(name="rand", act_bytes=acts, fwd_cost=fwd, bwd_cost=fwd)


class TestCollapseProperties:
    """The joint DP's option set contains both pure families, so pricing
    one mechanism out of the market must recover the other exactly."""

    @given(l=st.integers(1, 48), c=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_infinite_paging_collapses_to_revolve(self, l, c):
        spec = unit_spec(l)
        obj = UnitCostObjective(spec, write_cost=math.inf, read_cost=math.inf)
        c_eff = min(c, max(1, l - 1))
        assert joint_cost(spec, c, obj) == opt_forwards(l, c_eff)
        sched = joint_schedule(spec, c, obj)
        assert validate(sched)
        assert all(
            tier_of_slot(a.arg) == 0 for a in sched.actions if a.kind.name != "ADJOINT"
        )
        assert simulate(sched).forward_steps == opt_forwards(l, c_eff)

    @given(l=st.integers(2, 40), c=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_infinite_recompute_collapses_to_disk_revolve(self, l, c):
        """Steps priced sky-high, paging free: every interior activation
        worth parking gets paged and nothing is ever recomputed twice."""
        spec = ChainSpec.homogeneous(l, fwd_cost=BIG)
        obj = UnitCostObjective(spec, write_cost=0.0, read_cost=0.0)
        assert joint_cost(spec, c, obj) == pytest.approx((l - 1) * BIG)
        st_tiered = simulate_tiered(joint_schedule(spec, c, obj))
        assert st_tiered.forward_steps == l - 1  # zero extra recomputation

    @given(l=st.integers(1, 40), c=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_unit_pricing_equals_disk_revolve_exactly(self, l, c):
        """At disk_revolve's own prices the joint optimum coincides with
        it — the DP is a strict generalization, not an approximation."""
        spec = unit_spec(l)
        obj = UnitCostObjective(spec, write_cost=1.0, read_cost=1.0)
        assert joint_cost(spec, c, obj) == pytest.approx(
            disk_revolve_cost(l, c), abs=1e-9
        )

    @given(
        l=st.integers(1, 36),
        c=st.integers(1, 6),
        w=st.floats(0.0, 4.0),
        r=st.floats(0.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_weak_dominance_over_both_pure_families(self, l, c, w, r):
        spec = unit_spec(l)
        cost = joint_cost(spec, c, UnitCostObjective(spec, w, r))
        c_eff = min(c, max(1, l - 1))
        assert cost <= opt_forwards(l, c_eff) + 1e-9
        assert cost <= disk_revolve_cost(l, c, w, r) + 1e-9


class TestPlannedEqualsMeasured:
    """The DP's cost model and the tiered execution engine must agree to
    the last unit — otherwise "optimal" plans optimize a fiction."""

    @given(
        l=st.integers(1, 30),
        c=st.integers(1, 5),
        w=st.floats(0.0, 3.0),
        r=st.floats(0.0, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_objective(self, l, c, w, r):
        spec = unit_spec(l)
        obj = UnitCostObjective(spec, w, r)
        sched = joint_schedule(spec, c, obj)
        assert validate(sched)
        t = simulate_tiered(sched)
        assert t.total_cost(w, r) == pytest.approx(joint_cost(spec, c, obj), rel=1e-9)
        assert t.peak_memory_slots <= min(c, max(1, l - 1))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("disk", (SD_CARD, EMMC), ids=lambda d: d.name)
    def test_time_objective_on_heterogeneous_chains(self, seed, disk):
        import random

        from repro.engine.tiered import TieredBackend
        from repro.engine.vm import execute

        rng = random.Random(seed)
        spec = random_spec(rng, rng.randint(2, 18))
        c = rng.randint(1, 4)
        unit_s = 1e-9
        obj = TimeObjective(spec, disk=disk, unit_seconds=unit_s)
        sched = joint_schedule(spec, c, obj)
        run = execute(sched, TieredBackend(spec, disk=disk))
        measured = (run.forward_cost + run.replay_cost) * unit_s + run.transfer_seconds
        # The plan's cost covers forwards + I/O; replays are the final
        # adjoint passes the VM also counts, so add them symmetrically.
        planned = joint_cost(spec, c, obj) + run.replay_cost * unit_s
        assert measured == pytest.approx(planned, rel=1e-6)
        assert run.tier("memory").peak_slots <= c

    @pytest.mark.parametrize("seed", range(8))
    def test_energy_objective_on_heterogeneous_chains(self, seed):
        import random

        from repro.engine.tiered import TieredBackend
        from repro.engine.vm import execute

        rng = random.Random(100 + seed)
        spec = random_spec(rng, rng.randint(2, 18))
        c = rng.randint(1, 4)
        obj = EnergyObjective(spec, disk=SD_CARD)
        sched = joint_schedule(spec, c, obj)
        run = execute(sched, TieredBackend(spec, disk=SD_CARD))
        measured = (
            (run.forward_cost + run.replay_cost) * obj.compute_j_per_unit
            + obj.io_w * run.transfer_seconds
        )
        planned = joint_cost(spec, c, obj) + run.replay_cost * obj.compute_j_per_unit
        assert measured == pytest.approx(planned, rel=1e-6)


class TestScheduleAndProgram:
    def test_rejects_zero_slots(self):
        spec = unit_spec(5)
        with pytest.raises(ScheduleError):
            joint_plan(spec, 0)

    def test_rejects_objective_for_other_chain(self):
        with pytest.raises(PlanningError):
            joint_plan(unit_spec(5), 2, UnitCostObjective(unit_spec(6)))

    def test_plan_reports_tiers_and_splits(self):
        spec = ChainSpec.homogeneous(24, fwd_cost=10.0)
        plan = joint_plan(spec, 2, UnitCostObjective(spec, 1.0, 1.0))
        assert plan.paged and plan.tiers_used == (1,)
        assert all(0 <= pos < 24 for pos, _ in plan.splits)

    @pytest.mark.parametrize("l,c", ((7, 2), (24, 2), (24, 3), (60, 4)))
    def test_compile_decompile_round_trip_exact(self, l, c):
        from repro.engine.program import compile_schedule, decompile

        spec = unit_spec(l)
        sched = joint_schedule(spec, c, UnitCostObjective(spec, 1.0, 1.0))
        prog = compile_schedule(sched)
        assert decompile(prog) == sched
        if any(tier_of_slot(a.arg) != 0 for a in sched.actions if a.kind.name != "ADJOINT"):
            assert prog.paged
            assert any(t == 1 for t, _, _, _ in prog.tier_usage)


class TestFigure1Dominance:
    """The acceptance claim: on every Figure-1 panel and both storage
    profiles, the joint planner weakly dominates both pure families on
    its own objective at an equal RAM-slot budget, strictly somewhere."""

    @pytest.mark.parametrize("disk", (SD_CARD, EMMC), ids=lambda d: d.name)
    def test_all_panels_weakly_dominated_strict_somewhere(self, disk):
        from repro.experiments.figure1 import PANELS, _joint_spec

        strict = 0
        for batch, image in PANELS.values():
            for depth in (18, 152):
                spec = _joint_spec(depth, batch, image)
                pts = {
                    p.strategy: p
                    for p in joint_frontier(spec, 3, disk, unit_seconds=1.0 / 30e9)
                }
                jt, je = pts["joint_time"], pts["joint_energy"]
                pure_wall = min(pts["revolve"].wall_seconds, pts["disk_revolve"].wall_seconds)
                pure_energy = min(
                    pts["revolve"].energy_joules, pts["disk_revolve"].energy_joules
                )
                assert jt.wall_seconds <= pure_wall + 1e-9, (depth, batch, image)
                assert je.energy_joules <= pure_energy + 1e-9, (depth, batch, image)
                if jt.wall_seconds < pure_wall - 1e-6:
                    strict += 1
        assert strict >= 1

    def test_homogeneous_chain_pointwise_byte_dominance(self):
        """With equal-size activations (input included) the measured
        (peak RAM bytes, cost) pair is pointwise weakly dominant."""
        from repro.checkpointing import disk_revolve_schedule, revolve_schedule

        for l, c, w, r in ((21, 2, 1.0, 1.0), (34, 3, 0.5, 2.0), (60, 3, 2.0, 2.0)):
            spec = ChainSpec.homogeneous(l, act_bytes=1000)
            sched = joint_schedule(spec, c, UnitCostObjective(spec, w, r))
            jt = simulate_tiered(sched, spec)
            rv = simulate_tiered(revolve_schedule(l, c), spec)
            dr = simulate_tiered(disk_revolve_schedule(l, c), spec)
            assert jt.peak_memory_bytes <= min(rv.peak_memory_bytes, dr.peak_memory_bytes)
            assert jt.total_cost(w, r) <= min(rv.total_cost(w, r), dr.total_cost(w, r)) + 1e-9
