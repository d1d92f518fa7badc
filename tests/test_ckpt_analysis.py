"""Closed-form analysis: the exact Pareto frontier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    ParetoPoint,
    extra_forwards,
    pareto_frontier,
    rho_for_slots,
)
from repro.errors import PlanningError


class TestParetoFrontier:
    @given(l=st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_extras(self, l):
        pts = pareto_frontier(l)
        extras = [p.extra_forwards for p in pts]
        assert extras == sorted(extras, reverse=True)
        assert len(set(extras)) == len(extras)  # no dominated duplicates

    @given(l=st.integers(2, 120))
    @settings(max_examples=60, deadline=None)
    def test_endpoints(self, l):
        pts = pareto_frontier(l)
        assert pts[0].slots == 1
        assert pts[0].extra_forwards == (l - 1) * (l - 2) // 2
        assert pts[-1].extra_forwards == 0

    def test_points_match_extra_forwards(self):
        for p in pareto_frontier(50):
            assert p.extra_forwards == extra_forwards(50, p.slots)

    def test_rho_matches_planner(self):
        l = 34
        for p in pareto_frontier(l):
            assert p.rho(l) == pytest.approx(rho_for_slots(l, p.slots))

    def test_single_step_chain(self):
        pts = pareto_frontier(1)
        assert len(pts) == 1
        assert pts[0].extra_forwards == 0

    def test_validation(self):
        with pytest.raises(PlanningError):
            pareto_frontier(0)
