"""Section V sweep and Figure 1 reproduction — the paper's claims."""

import pytest

from repro.experiments import (
    PANELS,
    default_rhos,
    figure1_ascii,
    figure1_panel,
    section5_sweep,
    section5_table,
)
from repro.units import GB


class TestSection5:
    def test_formula_matches_execution_everywhere(self):
        rows = section5_sweep()  # every paper depth, up to 16 segments
        assert rows
        assert all(r.consistent for r in rows)

    def test_table_renders_with_bound(self):
        text = section5_table(lengths=(18, 152), max_segments=6).render()
        assert "2sqrt(l)" in text
        assert "152" in text


class TestFigure1:
    def test_all_panels_defined(self):
        assert set(PANELS) == {"a", "b", "c", "d"}
        assert PANELS["b"] == (8, 224)
        assert PANELS["c"] == (1, 500)

    def test_default_rho_grid(self):
        rhos = default_rhos()
        assert rhos[0] == 1.0
        assert rhos[-1] == 3.0
        assert len(rhos) == 41

    @pytest.mark.parametrize("panel", sorted(PANELS))
    def test_curves_monotone_nonincreasing(self, panel):
        for series in figure1_panel(panel, "paper"):
            mems = [b for _, b in series.points]
            assert mems == sorted(mems, reverse=True), series.name

    def test_rho1_equals_store_all_tables(self):
        """At ρ=1 the panel-a curves equal the paper's Table I batch-1
        column exactly (the calibration closes the loop)."""
        from repro.memory import PAPER_TABLE1_MB

        for series in figure1_panel("a", "paper"):
            mem0 = series.points[0][1] / (1024 * 1024)
            assert mem0 == pytest.approx(PAPER_TABLE1_MB[1][series.depth], abs=0.2)

    def test_panel_a_everything_fits_at_rho_1(self):
        """Batch 1 at 224 px: every model fits 2 GB without recompute."""
        assert all(s.memory_at(1.0) <= 2 * GB for s in figure1_panel("a", "paper"))

    def test_panel_b_paper_headline(self):
        """Figure 1b: at ρ=1 batch 8 only R18/R34 fit 2 GB; with ρ ≥ 1.6
        every model fits (paper Section VI)."""
        series = {s.depth: s for s in figure1_panel("b", "paper")}
        assert series[18].memory_at(1.0) <= 2 * GB
        assert series[34].memory_at(1.0) <= 2 * GB
        for depth in (50, 101, 152):
            assert series[depth].memory_at(1.0) > 2 * GB
        for depth in (18, 34, 50, 101, 152):
            rho_fit = series[depth].min_rho_under(2 * GB)
            assert rho_fit is not None and rho_fit <= 1.6

    def test_panel_d_needs_more_recompute_than_b(self):
        """500px at batch 8 is the hardest panel: fitting rho is >= the
        224px fitting rho for every model."""
        b = {s.depth: s.min_rho_under(2 * GB) for s in figure1_panel("b", "paper")}
        d = {s.depth: s.min_rho_under(2 * GB) for s in figure1_panel("d", "paper")}
        for depth, rb in b.items():
            rd = d[depth]
            if rd is not None and rb is not None:
                assert rd >= rb

    def test_panel_c_fits_somewhere(self):
        """Batch 1 at 500 px: ResNet-152 exceeds 2 GB at ρ=1, and
        checkpointing brings every model under 2 GB within the swept range."""
        series = figure1_panel("c", "paper")
        assert next(s for s in series if s.depth == 152).memory_at(1.0) > 2 * GB
        for s in series:
            assert s.min_rho_under(2 * GB) is not None

    def test_panel_d_headline(self):
        """Batch 8 at 500 px: even ResNet-18 exceeds 2 GB at ρ=1, and every
        model fits by ρ ≤ 2.0 (the paper's ~1.6 needs bwd = 2·fwd; see
        EXPERIMENTS.md)."""
        for s in figure1_panel("d", "paper"):
            assert s.memory_at(1.0) > 2 * GB
            assert s.min_rho_under(2 * GB) <= 2.0

    def test_ours_source_same_shape(self):
        """First-principles coefficients preserve the panel-b story."""
        series = {s.depth: s for s in figure1_panel("b", "ours")}
        fits_at_1 = {d: series[d].memory_at(1.0) <= 2 * GB for d in series}
        assert fits_at_1[18] and fits_at_1[34]
        assert not fits_at_1[152]
        for d in series:
            assert series[d].min_rho_under(2 * GB) is not None

    def test_ascii_render(self):
        text = figure1_ascii("b", "paper")
        assert "LinearResNet152" in text
        assert "2GB" in text

    def test_unknown_panel(self):
        with pytest.raises(KeyError):
            figure1_panel("z")
