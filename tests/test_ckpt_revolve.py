"""Revolve: closed form vs DP vs executed schedules (the paper's core)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    ChainSpec,
    beta,
    extra_forwards,
    min_slots_for_extra,
    opt_forwards,
    opt_forwards_dp,
    repetition_number,
    revolve_schedule,
    simulate,
    store_all_schedule,
)
from repro.errors import PlanningError, ScheduleError


class TestBeta:
    def test_binomials(self):
        assert beta(3, 2) == 10  # C(5,3)
        assert beta(1, r=5) == 6
        assert beta(5, 0) == 1

    def test_degenerate(self):
        assert beta(-1, 2) == 0
        assert beta(2, -1) == 0

    def test_repetition_number_boundaries(self):
        # l <= c+1 -> r = 1; l = 1 -> r = 0.
        assert repetition_number(1, 3) == 0
        assert repetition_number(4, 3) == 1
        assert repetition_number(5, 3) == 2

    def test_repetition_validation(self):
        with pytest.raises(ScheduleError):
            repetition_number(0, 1)
        with pytest.raises(ScheduleError):
            repetition_number(5, 0)


class TestOptForwards:
    def test_known_small_values(self):
        assert opt_forwards(1, 1) == 0
        assert opt_forwards(2, 1) == 1
        assert opt_forwards(4, 2) == 4
        assert opt_forwards(10, 1) == 45  # l(l-1)/2

    def test_plenty_of_slots_is_single_sweep(self):
        for l in (2, 5, 20):
            assert opt_forwards(l, l - 1) == l - 1

    def test_monotone_decreasing_in_slots(self):
        vals = [opt_forwards(30, c) for c in range(1, 30)]
        assert vals == sorted(vals, reverse=True)

    def test_monotone_increasing_in_length(self):
        vals = [opt_forwards(l, 3) for l in range(1, 40)]
        assert vals == sorted(vals)

    @given(l=st.integers(1, 60), c=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_dp(self, l, c):
        """Griewank-Walther's binomial formula matches the DP recurrence."""
        c_eff = min(c, max(1, l - 1))
        assert opt_forwards(l, c_eff) == opt_forwards_dp(l, c)

    def test_paper_scale_value(self):
        # LinearResNet-152 with 5 slots: DP agrees with closed form.
        assert opt_forwards(152, 5) == opt_forwards_dp(152, 5)

    def test_large_l_closed_form_fast(self):
        # The closed form handles chain lengths far beyond DP reach.
        assert opt_forwards(10_000, 10) > 0


def reference_dp_tables(l_max, c_max):
    """The original per-bounds table builder, rebuilt from scratch."""
    cost = [[0] * (l_max + 1) for _ in range(c_max + 1)]
    split = [[0] * (l_max + 1) for _ in range(c_max + 1)]
    for l in range(l_max + 1):
        cost[1][l] = l * (l - 1) // 2
    for c in range(2, c_max + 1):
        for l in range(2, l_max + 1):
            best, best_m = float("inf"), 0
            for m in range(1, l):
                val = m + cost[c - 1][l - m] + cost[c][m]
                if val < best:
                    best, best_m = val, m
            cost[c][l] = int(best)
            split[c][l] = best_m
    return cost, split


class TestSharedDPTable:
    @pytest.mark.parametrize(
        "requests", [[(70, 9), (12, 3)], [(200, 1), (5, 12), (40, 4)], [(3, 2), (33, 6)]]
    )
    def test_grown_table_matches_fresh_build(self, requests):
        from repro.checkpointing.revolve import _dp_tables

        for l_max, c_max in requests:
            cost, split = _dp_tables(l_max, c_max)
            ref_cost, ref_split = reference_dp_tables(l_max, c_max)
            for c in range(1, c_max + 1):
                assert cost[c][: l_max + 1] == ref_cost[c]
                assert split[c][: l_max + 1] == ref_split[c]

    def test_concurrent_growth_matches_fresh_build(self):
        """Threads growing the shared table at once never see a hole."""
        import sys
        import threading

        from repro.checkpointing.revolve import _dp_tables

        requests = [(l, c) for l in (90, 110, 130) for c in (2, 5, 9, 13)]
        ref_cost, ref_split = reference_dp_tables(130, 13)
        errors = []
        start = threading.Barrier(len(requests))

        def worker(l_max, c_max):
            start.wait(timeout=60)
            cost, split = _dp_tables(l_max, c_max)
            for c in range(1, c_max + 1):
                if cost[c][: l_max + 1] != ref_cost[c][: l_max + 1]:
                    errors.append((l_max, c_max, c))
                if split[c][: l_max + 1] != ref_split[c][: l_max + 1]:
                    errors.append((l_max, c_max, c))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=r) for r in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_one_table_serves_every_request(self):
        from repro.checkpointing.revolve import _dp_tables

        big = _dp_tables(30, 5)
        assert _dp_tables(10, 2)[0] is big[0]
        assert _dp_tables(31, 6)[1] is big[1]


class TestExtraForwards:
    def test_zero_at_store_all(self):
        assert extra_forwards(10, 9) == 0
        assert extra_forwards(10, 50) == 0
        assert extra_forwards(1, 1) == 0

    def test_single_slot_quadratic(self):
        l = 10
        assert extra_forwards(l, 1) == (l - 1) * (l - 2) // 2

    def test_never_negative(self):
        for l in range(1, 60):
            for c in range(1, l + 2):
                assert extra_forwards(l, c) >= 0


class TestMinSlots:
    def test_budget_zero_requires_store_all(self):
        assert min_slots_for_extra(10, 0) == 9

    def test_huge_budget_one_slot(self):
        assert min_slots_for_extra(10, 10_000) == 1

    def test_boundary_exactness(self):
        l = 50
        for budget in (0, 10, 49, 100, 500):
            c = min_slots_for_extra(l, budget)
            assert extra_forwards(l, c) <= budget
            if c > 1:
                assert extra_forwards(l, c - 1) > budget

    def test_negative_budget_rejected(self):
        with pytest.raises(PlanningError):
            min_slots_for_extra(10, -1)

    @given(l=st.integers(2, 150), budget=st.integers(0, 2000))
    @settings(max_examples=150, deadline=None)
    def test_minimality_property(self, l, budget):
        c = min_slots_for_extra(l, budget)
        assert extra_forwards(l, c) <= budget
        if c > 1:
            assert extra_forwards(l, c - 1) > budget


class TestRevolveSchedule:
    @given(l=st.integers(1, 45), c=st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_schedule_is_optimal_and_valid(self, l, c):
        """Executed forward count == P(l, c); slots within budget; all
        adjoints in order (simulate() raises otherwise)."""
        sch = revolve_schedule(l, c)
        stats = simulate(sch)
        assert stats.forward_steps == opt_forwards(l, sch.slots)
        assert stats.peak_slots <= sch.slots
        assert stats.replay_steps == l

    def test_slots_clamped_to_useful(self):
        sch = revolve_schedule(5, 100)
        assert sch.slots == 4

    def test_every_step_executed(self):
        stats = simulate(revolve_schedule(20, 3))
        assert all(e >= 1 for e in stats.executions)

    def test_single_slot_executions_triangle(self):
        l = 6
        stats = simulate(revolve_schedule(l, 1))
        # With one slot, step i is re-advanced once per later adjoint.
        assert stats.forward_steps == l * (l - 1) // 2

    def test_validation(self):
        with pytest.raises(ScheduleError):
            revolve_schedule(0, 1)
        with pytest.raises(ScheduleError):
            revolve_schedule(5, 0)

    def test_deep_chain_no_recursion_blowup(self):
        """Left-tail iteration keeps recursion bounded for big l."""
        sch = revolve_schedule(400, 2)
        stats = simulate(sch)
        assert stats.forward_steps == opt_forwards(400, 2)


class TestStoreAllSchedule:
    def test_mandatory_sweep_only(self):
        stats = simulate(store_all_schedule(12))
        assert stats.forward_steps == 11
        assert stats.extra_forward_steps() == 0

    def test_uses_l_slots(self):
        sch = store_all_schedule(7)
        stats = simulate(sch)
        assert stats.peak_slots == 7

    def test_single_step(self):
        stats = simulate(store_all_schedule(1))
        assert stats.forward_steps == 0
        assert stats.replay_steps == 1

    def test_recompute_factor_is_one(self):
        spec = ChainSpec.homogeneous(9)
        stats = simulate(store_all_schedule(9), spec)
        assert stats.recompute_factor(spec) == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            store_all_schedule(0)
