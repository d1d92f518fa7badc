"""Energy calculator: ship-vs-local training and streaming inference."""

import pytest

from repro.edge import (
    EnergyModel,
    breakeven_epochs,
    streaming_comparison,
)


class TestEnergyModel:
    def test_transfer_linear(self):
        m = EnergyModel(radio_j_per_byte=2e-6)
        assert m.transfer_energy(1_000_000) == pytest.approx(2.0)

    def test_compute_linear(self):
        m = EnergyModel(compute_j_per_flop=1e-10)
        assert m.compute_energy(1e10) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(radio_j_per_byte=-1.0)
        with pytest.raises(ValueError):
            EnergyModel().transfer_energy(-1)
        with pytest.raises(ValueError):
            EnergyModel().compute_energy(-1)


class TestBreakeven:
    def test_breakeven_consistency(self):
        """At exactly the breakeven epoch count, the two sides tie."""
        m = EnergyModel()
        eps = breakeven_epochs(10_000, 1e9, model=m)
        epochs = max(1, round(eps))
        # Ship 500 images once vs train on them: fwd + bwd (bwd_ratio 2).
        ship = m.transfer_energy(500 * 10_000)
        local = m.compute_energy(500 * epochs * 3e9)
        # epochs is integer-rounded; allow the rounding slack.
        assert local / ship == pytest.approx(epochs / eps, rel=0.01)

    def test_breakeven_scales_with_radio_cost(self):
        cheap = breakeven_epochs(10_000, 1e9, model=EnergyModel(radio_j_per_byte=1e-7))
        dear = breakeven_epochs(10_000, 1e9, model=EnergyModel(radio_j_per_byte=1e-5))
        assert dear > cheap

    def test_rho_lowers_breakeven(self):
        plain = breakeven_epochs(10_000, 1e9, rho=1.0)
        ckpt = breakeven_epochs(10_000, 1e9, rho=2.0)
        assert ckpt < plain

    def test_free_compute(self):
        m = EnergyModel(compute_j_per_flop=0.0)
        assert breakeven_epochs(10_000, 1e9, model=m) == float("inf")


class TestStreaming:
    def test_ship_scales_with_frame_size(self):
        small = streaming_comparison(1.0, 20_000, 4e9)
        large = streaming_comparison(1.0, 200_000, 4e9)
        assert large.ship_joules == pytest.approx(10 * small.ship_joules)
        assert large.local_joules == small.local_joules

    def test_local_scales_with_model_cost(self):
        light = streaming_comparison(1.0, 100_000, 4e8)
        heavy = streaming_comparison(1.0, 100_000, 4e9)
        assert heavy.local_joules == pytest.approx(10 * light.local_joules)

    def test_big_frames_cheap_model_favours_local(self):
        """Raw-ish frames + a light detector: edge inference wins — the
        paper's bandwidth argument in energy terms."""
        cmp = streaming_comparison(2.0, 500_000, 1e9)
        assert cmp.local_wins

    def test_validation(self):
        with pytest.raises(ValueError):
            streaming_comparison(0.0, 100, 1e9)
        with pytest.raises(ValueError):
            streaming_comparison(1.0, 100, -1.0)
