"""Heterogeneous-chain DPs: generalize Revolve, respect byte budgets."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    ChainSpec,
    budget_schedule,
    hetero_schedule,
    opt_forwards,
    opt_forwards_budget,
    opt_forwards_hetero,
    quantize_sizes,
    simulate,
)
from repro.checkpointing.actions import snapshot
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.errors import PlanningError, ScheduleError
from repro.graph import linearize
from repro.zoo import tiny_residual


def random_spec(draw_costs, draw_sizes, l):
    return ChainSpec(
        name="rand",
        act_bytes=tuple(draw_sizes for _ in range(l + 1)) if isinstance(draw_sizes, int) else draw_sizes,
        fwd_cost=draw_costs,
        bwd_cost=draw_costs,
    )


class TestHeteroReducesToRevolve:
    @given(l=st.integers(1, 25), c=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_equivalence(self, l, c):
        spec = ChainSpec.homogeneous(l)
        c_eff = min(c, max(1, l - 1))
        assert opt_forwards_hetero(spec, c) == pytest.approx(opt_forwards(l, c_eff))

    def test_cost_scaling_invariance(self):
        """Scaling all step costs scales the optimum linearly."""
        base = ChainSpec.homogeneous(12, fwd_cost=1.0)
        scaled = ChainSpec.homogeneous(12, fwd_cost=3.5)
        assert opt_forwards_hetero(scaled, 3) == pytest.approx(3.5 * opt_forwards_hetero(base, 3))

    def test_expensive_step_avoided(self):
        """The optimum re-runs cheap steps, not the expensive one."""
        costs = (1.0, 100.0, 1.0, 1.0)
        spec = ChainSpec(name="h", act_bytes=(1,) * 5, fwd_cost=costs, bwd_cost=costs)
        # opt includes the mandatory first sweep (F1..F3 = 102); beyond
        # that, checkpointing right after the expensive step keeps it out
        # of every re-advance, so the *extra* cost stays tiny.
        opt = opt_forwards_hetero(spec, 2)
        sweep = sum(costs[:-1])
        assert opt - sweep < 100.0
        assert opt - sweep == pytest.approx(1.0)

    def test_slot_validation(self):
        with pytest.raises(ScheduleError):
            opt_forwards_hetero(ChainSpec.homogeneous(3), 0)


class TestHeteroSchedule:
    @given(
        l=st.integers(1, 12),
        c=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_achieves_dp_cost(self, l, c, seed):
        import random

        r = random.Random(seed)
        costs = tuple(r.choice([0.5, 1.0, 2.0, 4.0]) for _ in range(l))
        spec = ChainSpec(name="h", act_bytes=(1,) * (l + 1), fwd_cost=costs, bwd_cost=costs)
        sch = hetero_schedule(spec, c)
        stats = simulate(sch, spec)
        assert stats.forward_cost == pytest.approx(opt_forwards_hetero(spec, c))
        assert stats.peak_slots <= c

    def test_on_real_resnet_block_chain(self):
        spec = ChainSpec.from_segment_chain(linearize(tiny_residual()))
        sch = hetero_schedule(spec, 2)
        stats = simulate(sch, spec)
        assert stats.forward_cost == pytest.approx(opt_forwards_hetero(spec, 2))


class TestQuantize:
    def test_ceiling_is_conservative(self):
        units, per = quantize_sizes((100, 250, 999), levels=4)
        assert all(u * per >= b for u, b in zip(units, (100, 250, 999)))

    def test_zero_sizes(self):
        units, per = quantize_sizes((0, 0), levels=4)
        assert units == (0, 0)
        assert per == 1

    def test_levels_validation(self):
        with pytest.raises(PlanningError):
            quantize_sizes((1, 2), levels=1)


class TestBudgetDP:
    def test_budget_never_exceeded(self):
        import random

        r = random.Random(3)
        for _ in range(20):
            l = r.randint(1, 10)
            sizes = tuple(r.randint(1, 5) for _ in range(l + 1))
            costs = tuple(float(r.randint(1, 3)) for _ in range(l))
            spec = ChainSpec(name="b", act_bytes=sizes, fwd_cost=costs, bwd_cost=costs)
            budget = sizes[0] + r.randint(0, sum(sizes))
            sch = budget_schedule(spec, budget, levels=16)
            stats = simulate(sch, spec)
            assert stats.peak_slot_bytes <= budget
            cost, _ = opt_forwards_budget(spec, budget, levels=16)
            assert stats.forward_cost == pytest.approx(cost)

    def test_more_budget_never_hurts(self):
        spec = ChainSpec(
            name="b",
            act_bytes=(1, 2, 3, 2, 1, 2),
            fwd_cost=(1.0,) * 5,
            bwd_cost=(1.0,) * 5,
        )
        costs = [
            opt_forwards_budget(spec, b, levels=32)[0] for b in (1, 3, 5, 8, 12)
        ]
        assert costs == sorted(costs, reverse=True)

    def test_input_must_fit(self):
        spec = ChainSpec(name="b", act_bytes=(100, 1), fwd_cost=(1.0,), bwd_cost=(1.0,))
        with pytest.raises(PlanningError):
            opt_forwards_budget(spec, budget_bytes=10, levels=8)

    def test_generous_budget_is_store_all(self):
        l = 8
        spec = ChainSpec.homogeneous(l, act_bytes=4)
        cost, _ = opt_forwards_budget(spec, budget_bytes=1000, levels=8)
        assert cost == pytest.approx(l - 1)


# ---------------------------------------------------------------------------
# Exactness of the row tables against the original memoized recursion
# ---------------------------------------------------------------------------


class MemoOracle:
    """The original recursive, ``(i, j, budget)``-memoized segment solve.

    Kept verbatim in float order and tie-break so the tabulated core can
    be held to ``==`` on costs and argmins, not approximate equality.
    """

    def __init__(self, dp):
        self.dp = dp
        self.memo = {}

    def quad(self, i, j):
        total = 0.0
        for b in range(j, i, -1):
            total += self.dp.prefix[b - 1] - self.dp.prefix[i]
        return total

    def solve(self, i, j, budget):
        dp = self.dp
        if j - i <= 1:
            return 0.0, 0
        if not dp.can_split(budget):
            return self.quad(i, j), 0
        key = (i, j, budget)
        if key in self.memo:
            return self.memo[key]
        avail = dp.free_units(budget)
        best, best_m = self.quad(i, j), 0
        for m in range(i + 1, j):
            units = dp.snapshot_units(m)
            if units > avail:
                continue
            val = (
                (dp.prefix[m] - dp.prefix[i])
                + self.solve(m, j, budget - units)[0]
                + self.solve(i, m, budget)[0]
            )
            if val < best - 1e-12:
                best, best_m = val, m
        self.memo[key] = (best, best_m)
        return best, best_m


def oracle_actions(dp, l, budget, pool):
    """Emit through ``SegmentDP.emit`` with the oracle's argmins."""
    dp.solve = MemoOracle(dp).solve  # instance attribute shadows the row lookup
    actions = [snapshot(0)]
    dp.emit(actions, 0, l, budget, 0, pool)
    return tuple(actions)


#: near-ties 1e-13 apart sit inside the 1e-12 tie tolerance
COSTS = st.one_of(
    st.sampled_from([0.0, 1e-12, 0.5, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 2.0, 3.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
SIZES = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 5000))


@st.composite
def hetero_specs(draw):
    l = draw(st.integers(1, 24))
    costs = tuple(draw(st.lists(COSTS, min_size=l, max_size=l)))
    sizes = tuple(draw(st.lists(SIZES, min_size=l + 1, max_size=l + 1)))
    return ChainSpec(name="h", act_bytes=sizes, fwd_cost=costs, bwd_cost=costs)


def assert_matches_oracle(new, oracle_dp, l, budget):
    oracle = MemoOracle(oracle_dp)
    assert new.solve(0, l, budget) == oracle.solve(0, l, budget)
    for (i, j, b), hit in oracle.memo.items():
        assert new.solve(i, j, b) == hit, (i, j, b)


class TestRowTablesMatchMemoizedOracle:
    @given(spec=hetero_specs(), c=st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_hetero(self, spec, c):
        from repro.checkpointing.dynprog import _HeteroDP

        l = spec.length
        assert_matches_oracle(_HeteroDP(spec.fwd_cost), _HeteroDP(spec.fwd_cost), l, c)
        expected = oracle_actions(_HeteroDP(spec.fwd_cost), l, c, list(range(1, c)))
        assert hetero_schedule(spec, c).actions == expected

    @given(
        spec=hetero_specs(),
        levels=st.sampled_from([4, 16, 64]),
        extra=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_budget(self, spec, levels, extra):
        from repro.checkpointing.dynprog import _BudgetDP

        l = spec.length
        budget_bytes = spec.act_bytes[0] + int(extra * sum(spec.act_bytes))
        units, per_unit = quantize_sizes(spec.act_bytes, levels)
        free_units = budget_bytes // per_unit - units[0]
        if free_units < 0:
            with pytest.raises(PlanningError):
                budget_schedule(spec, budget_bytes, levels)
            return
        assert_matches_oracle(
            _BudgetDP(spec.fwd_cost, units), _BudgetDP(spec.fwd_cost, units), l, free_units
        )
        expected = oracle_actions(
            _BudgetDP(spec.fwd_cost, units), l, free_units, list(range(1, l + 1))
        )
        assert budget_schedule(spec, budget_bytes, levels).actions == expected
        oracle = MemoOracle(_BudgetDP(spec.fwd_cost, units))
        assert opt_forwards_budget(spec, budget_bytes, levels) == (
            oracle.solve(0, l, free_units)[0],
            per_unit,
        )


#: sha256 of every registered family's schedules over GOLDEN_LENGTHS x
#: GOLDEN_SLOTS, captured before the planner DPs were tabulated: any
#: change to a plan, a tie-break or an infeasibility verdict shows here.
GOLDEN_LENGTHS = (5, 16, 24, 33, 48, 60)
GOLDEN_SLOTS = (2, 3, 4, 8)
GOLDEN = {
    "revolve": "ce1ad978b0a19ee3de2b846fb9f2b8cf9bfed237294ac28e36e88591660c0f7f",
    "uniform": "c29bdd6bcec793d77e390cf92a7b259fb373969d3f14e99a177e600bf6ec99c1",
    "sqrt": "4b644a66ad53b6dfbdf962188991bfc7c8c01110ef4ce9f96c3ecf8a66b37892",
    "store_all": "083f1418e634fb21b6584e737fbc9468ead4a949484a64e65cafa880fc362015",
    "hetero": "f467135c66963029558c716ecaade33b3137f6e4833c3735b543af88416a48a2",
    "budget": "34975ccb713b20db0414ff610dd03f3eec2913f853d0284386c984572a9a8999",
    "disk_revolve": "8624083b193faae1fe134ca1ac6a0caa44272ee2b4049640dac1b7472f149e8a",
    "joint_time": "8624083b193faae1fe134ca1ac6a0caa44272ee2b4049640dac1b7472f149e8a",
    "joint_energy": "a61866ea36bb2167c4da42ac3c2a29219baa2e00c3fe396fa3e1d2dd1a6e996d",
    "revolve_zip": "5f553c423c492fe75e68c3dfde1a366b11eba268a1c181644c64df13a3851484",
    "joint_zip": "f94059b5bc614ec96efa3fb992191bdd60d6b20b8ac44e6408608d6b2074e23f",
}


def schedule_digest(strategy) -> str:
    h = hashlib.sha256()
    for l in GOLDEN_LENGTHS:
        for c in GOLDEN_SLOTS:
            h.update(f"{l},{c}:".encode())
            try:
                actions = strategy.schedule(l, c).actions
            except (PlanningError, ScheduleError) as exc:
                h.update(f"{type(exc).__name__}\n".encode())
                continue
            for a in actions:
                h.update(f"{a.kind.value} {a.arg}\n".encode())
    return h.hexdigest()


def test_every_family_schedule_is_bit_identical_to_golden():
    assert set(available_strategies()) == set(GOLDEN)
    for name, digest in GOLDEN.items():
        assert schedule_digest(get_strategy(name)) == digest, name
