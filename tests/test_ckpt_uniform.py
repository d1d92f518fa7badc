"""Uniform (checkpoint_sequential) strategy — the paper's Section V."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checkpointing import (
    best_segments,
    segment_lengths,
    simulate,
    sqrt_memory_slots,
    sqrt_schedule,
    sqrt_segments,
    uniform_extra_forwards,
    uniform_extra_forwards_fused,
    uniform_lower_bound,
    uniform_memory_slots,
    uniform_schedule,
)
from repro.errors import PlanningError, ScheduleError


class TestSegmentLengths:
    def test_even_split(self):
        assert segment_lengths(12, 3) == [4, 4, 4]

    def test_remainder_goes_last(self):
        assert segment_lengths(14, 4) == [3, 3, 3, 5]

    def test_one_segment(self):
        assert segment_lengths(9, 1) == [9]

    def test_lengths_sum_to_l(self):
        for l in range(1, 30):
            for s in range(1, l + 1):
                assert sum(segment_lengths(l, s)) == l

    def test_validation(self):
        with pytest.raises(ScheduleError):
            segment_lengths(5, 6)
        with pytest.raises(ScheduleError):
            segment_lengths(0, 1)


class TestFormula:
    def test_paper_formula_literal(self):
        # Mem = s - 1 + (l - floor(l/s)(s-1))
        l, s = 50, 5
        assert uniform_memory_slots(l, s) == (s - 1) + (l - (l // s) * (s - 1))

    def test_s_equals_one_is_store_all(self):
        assert uniform_memory_slots(20, 1) == 20

    def test_s_equals_l_keeps_boundaries(self):
        assert uniform_memory_slots(20, 20) == 20  # every input stored

    @given(l=st.integers(1, 300))
    @example(l=18)  # the paper's ResNet depths, always checked
    @example(l=34)
    @example(l=50)
    @example(l=101)
    @example(l=152)
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_2sqrt_l(self, l):
        """min_s Mem(l, s) stays within O(1) of the paper's 2√l bound."""
        best = min(uniform_memory_slots(l, s) for s in range(1, l + 1))
        assert best >= uniform_lower_bound(l) - 2.0
        assert best <= uniform_lower_bound(l) + math.sqrt(l)  # and is near it

    def test_extra_forwards_pytorch_convention(self):
        # All non-final segments re-run in full.
        assert uniform_extra_forwards(12, 3) == 8
        assert uniform_extra_forwards(12, 1) == 0

    def test_extra_forwards_fused_convention(self):
        assert uniform_extra_forwards_fused(12, 3) == 6
        assert uniform_extra_forwards_fused(12, 1) == 0


class TestBestSegments:
    def test_minimizes_formula(self):
        l = 101
        s = best_segments(l)
        best = uniform_memory_slots(l, s)
        assert best == min(uniform_memory_slots(l, t) for t in range(1, l + 1))

    def test_budgeted_picks_min_recompute(self):
        l = 50
        s = best_segments(l, slot_budget=30)
        assert uniform_memory_slots(l, s) <= 30
        # any smaller s (less recompute) must violate the budget
        for t in range(1, s):
            assert uniform_memory_slots(l, t) > 30

    def test_budget_too_small_raises(self):
        with pytest.raises(PlanningError):
            best_segments(100, slot_budget=3)


class TestUniformSchedule:
    @given(l=st.integers(1, 60), s=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_measured_peak_matches_formula(self, l, s):
        """Executing the schedule reproduces the Section V slot count."""
        if s > l:
            return
        sch = uniform_schedule(l, s)
        stats = simulate(sch)
        assert stats.peak_slots == uniform_memory_slots(l, s)

    @given(l=st.integers(1, 60), s=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_measured_extra_matches_fused_formula(self, l, s):
        if s > l:
            return
        stats = simulate(uniform_schedule(l, s))
        assert stats.extra_forward_steps() == uniform_extra_forwards_fused(l, s)

    def test_all_slots_freed_at_end(self):
        sch = uniform_schedule(20, 4)
        frees = sum(1 for a in sch.actions if a.kind.value == "free")
        snaps_distinct = len(sch.used_slots())
        assert frees >= snaps_distinct  # every distinct slot freed


class TestSqrt:
    def test_segments_near_sqrt(self):
        assert sqrt_segments(49) == 7
        assert sqrt_segments(50) == 7
        assert sqrt_segments(1) == 1

    def test_memory_near_bound(self):
        for l in (18, 50, 152):
            assert sqrt_memory_slots(l) <= uniform_lower_bound(l) + math.sqrt(l)

    def test_schedule_valid(self):
        sch = sqrt_schedule(30)
        stats = simulate(sch)
        assert stats.peak_slots == sqrt_memory_slots(30)
        assert sch.strategy == "sqrt"

    def test_validation(self):
        with pytest.raises(ValueError):
            sqrt_segments(0)
