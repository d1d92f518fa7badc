"""Convention sensitivity of the Figure 1 fitting-ρ values."""

import pytest

from repro.experiments import fit_rho, sensitivity_sweep, sensitivity_table
from repro.units import GB


class TestFitRho:
    def test_matches_panel_headline(self):
        """Defaults reproduce the E5-E8 table: panel d, R152 -> 2.0."""
        assert fit_rho(152, batch=8, image=500, budget_bytes=2 * GB) == pytest.approx(2.0)

    def test_monotone_in_depth(self):
        rhos = [
            fit_rho(d, 8, 500, 2 * GB) for d in (18, 34, 50, 101, 152)
        ]
        assert all(r is not None for r in rhos)
        assert rhos == sorted(rhos)

    def test_heavier_backward_lowers_fit_rho(self):
        """Recompute is a smaller share of time when backward dominates."""
        r1 = fit_rho(152, 8, 500, 2 * GB, bwd_ratio=1.0)
        r2 = fit_rho(152, 8, 500, 2 * GB, bwd_ratio=2.0)
        assert r2 <= r1

    def test_inflight_slot_costs_rho(self):
        with_w = fit_rho(152, 8, 500, 2 * GB, inflight_slots=1)
        without = fit_rho(152, 8, 500, 2 * GB, inflight_slots=0)
        assert without <= with_w

    def test_paper_claim_recovered_at_bwd2(self):
        """The paper's 'all models fit with rho > 1.6' on panel d emerges
        under the bwd = 2x fwd convention."""
        for depth in (18, 34, 50, 101, 152):
            r = fit_rho(depth, 8, 500, 2 * GB, bwd_ratio=2.0)
            assert r is not None and r <= 1.65

    def test_hopeless_budget_returns_none(self):
        assert fit_rho(152, 8, 500, budget_bytes=100 * 1024 * 1024) is None


class TestSweep:
    def test_covers_grid(self):
        pts = sensitivity_sweep(depths=(18, 152), bwd_ratios=(1.0,), inflight=(0, 1))
        assert len(pts) == 4

    def test_every_convention_fits_and_keeps_model_order(self):
        """Every convention keeps the crossovers inside the plotted
        ρ ≤ 3 range, and none changes the model ordering."""
        pts = sensitivity_sweep()
        assert pts and all(p.fit_rho is not None and p.fit_rho <= 3.0 for p in pts)
        for ratio in (0.5, 1.0, 2.0):
            for w in (0, 1):
                rhos = [
                    p.fit_rho for p in sorted(pts, key=lambda q: q.depth)
                    if p.bwd_ratio == ratio and p.inflight_slots == w
                ]
                assert rhos == sorted(rhos)

    def test_table_renders(self):
        text = sensitivity_table().render()
        assert "ResNet152" in text
        assert "r=2.0" in text
