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
    joint_cost,
    joint_plan,
    joint_schedule,
    measure_frontier,
    opt_forwards,
    simulate,
    tier_of_slot,
    validate,
)
from repro.edge.storage import EMMC, SD_CARD
from repro.errors import PlanningError, ScheduleError

from .test_ckpt_multilevel import reference_disk_revolve, tiered_run, total_cost

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
        run = tiered_run(joint_schedule(spec, c, obj))
        assert run.forward_steps == l - 1  # zero extra recomputation

    @given(l=st.integers(1, 40), c=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_unit_pricing_equals_disk_revolve_exactly(self, l, c):
        """At disk_revolve's own prices the joint optimum coincides with
        the two-level recurrence — the DP is a strict generalization, not
        an approximation."""
        spec = unit_spec(l)
        obj = UnitCostObjective(spec, write_cost=1.0, read_cost=1.0)
        assert joint_cost(spec, c, obj) == pytest.approx(
            reference_disk_revolve(l, c)[0], abs=1e-9
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
        assert cost <= reference_disk_revolve(l, c, w, r)[0] + 1e-9


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
        run = tiered_run(sched)
        assert total_cost(run, w, r) == pytest.approx(joint_cost(spec, c, obj), rel=1e-9)
        assert run.tier("memory").peak_slots <= min(c, max(1, l - 1))

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

    @pytest.mark.parametrize(
        "build",
        (
            lambda spec: UnitCostObjective(spec, write_cost=math.nan),
            lambda spec: UnitCostObjective(spec, read_cost=math.nan),
            lambda spec: TimeObjective(spec, unit_seconds=math.nan),
            lambda spec: EnergyObjective(spec, compute_j_per_unit=math.nan),
            lambda spec: EnergyObjective(spec, io_w=math.nan),
        ),
        ids=("unit-write", "unit-read", "time-unit-seconds", "energy-compute", "energy-io"),
    )
    def test_rejects_nan_prices(self, build):
        """NaN slips past ``x < 0`` and then loses every ``val < best``."""
        with pytest.raises(PlanningError):
            build(unit_spec(10))

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
        from repro.experiments.figure1 import JOINT_FAMILIES, PANELS, _joint_spec

        strict = 0
        for batch, image in PANELS.values():
            for depth in (18, 152):
                spec = _joint_spec(depth, batch, image)
                pts = {
                    p.strategy: p
                    for p in measure_frontier(
                        spec, 3, JOINT_FAMILIES, disk, unit_seconds=1.0 / 30e9
                    )
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
            jt, rv, dr = (
                tiered_run(s, spec)
                for s in (sched, revolve_schedule(l, c), disk_revolve_schedule(l, c))
            )
            assert jt.tier("memory").peak_bytes <= min(
                rv.tier("memory").peak_bytes, dr.tier("memory").peak_bytes
            )
            assert total_cost(jt, w, r) <= min(
                total_cost(rv, w, r), total_cost(dr, w, r)
            ) + 1e-9


def reference_joint_solve(spec, c, objective):
    """The original outer loop: every price and inner reversal cost is
    re-evaluated at each (b, t, m, u), with the inner costs taken from
    the closed form or the segment DP exactly as the planner does."""
    from repro.checkpointing.dynprog import SlotSegmentDP

    l = spec.length
    unit = objective.uniform_step
    if unit is not None:
        c_in = min(c, max(1, l - 1))

        def inner(i, j):
            return opt_forwards(j - i, c_in) * unit if j > i else 0.0

    else:
        dp = SlotSegmentDP(tuple(objective.step_cost(k) for k in range(1, l + 1)))

        def inner(i, j):
            return dp.solve(i, j, c)[0] if j > i else 0.0

    tiers = objective.paged_tiers
    table = {}
    for b in range(l - 1, -1, -1):
        for t in tiers:
            best, best_m, best_u = inner(b, l), 0, -1
            read_b = objective.read_cost(t, b)
            for m in range(b + 1, l):
                base = objective.advance_cost(b, m) + read_b + inner(b, m)
                for u in tiers:
                    val = base + objective.write_cost(u, m) + table[(m, u)][0]
                    if val < best - 1e-12:
                        best, best_m, best_u = val, m, u
            table[(b, t)] = (best, best_m, best_u)
    best, t0 = inner(0, l), -1
    for t in tiers:
        val = objective.write_cost(t, 0) + table[(0, t)][0]
        if val < best - 1e-12:
            best, t0 = val, t
    splits = []
    if t0 >= 0:
        b, t = 0, t0
        while True:
            splits.append((b, t))
            _, m, u = table[(b, t)]
            if m == 0:
                break
            b, t = m, u
    return best, tuple(splits)


class TestHoistedPricesMatchReference:
    @given(
        l=st.integers(1, 20),
        c=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        uniform=st.booleans(),
        zipped=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_bit_identical(self, l, c, seed, uniform, zipped):
        import random

        from repro.edge.storage import BITTRAIN_SPARSE

        rng = random.Random(seed)
        if uniform:
            spec = unit_spec(l)
        else:
            fwd = tuple(rng.uniform(0.1, 10.0) for _ in range(l))
            acts = tuple(rng.randint(1, 1 << 22) for _ in range(l + 1))
            spec = ChainSpec(name="rand", act_bytes=acts, fwd_cost=fwd, bwd_cost=fwd)
        codec = BITTRAIN_SPARSE if zipped else None
        # Prices on the same scale as a step, so paging both wins and loses.
        for obj in (
            UnitCostObjective(spec, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), codec=codec),
            TimeObjective(spec, disk=SD_CARD, unit_seconds=rng.choice([1e-3, 1e-2]), codec=codec),
            EnergyObjective(spec, disk=EMMC, compute_j_per_unit=0.05, codec=codec),
        ):
            plan = joint_plan(spec, c, obj)
            assert (plan.cost, plan.splits) == reference_joint_solve(spec, c, obj)
