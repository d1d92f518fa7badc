"""Makespan analysis: Daly's closed form vs the Monte-Carlo replay,
and the empirical recovery of the Young/Daly optimum."""

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.resilience import (
    PoissonFaults,
    daly_expected_makespan,
    overhead_vs_fault_rate,
    simulate_makespan,
    sweep_intervals,
    young_daly_interval,
)


class TestClosedForm:
    def test_zero_work_is_free(self):
        assert daly_expected_makespan(0.0, 100.0, 5.0, 60.0, 3600.0) == 0.0

    def test_reliable_node_pays_only_snapshots(self):
        """MTBF >> work: e^{t/M}-1 -> t/M, so the expectation collapses
        to plain work + snapshot writes."""
        out = daly_expected_makespan(1000.0, 100.0, 5.0, 60.0, 1e12)
        assert out == pytest.approx(1000.0 + 9 * 5.0, rel=1e-6)

    def test_final_segment_skips_snapshot(self):
        exact = daly_expected_makespan(200.0, 100.0, 5.0, 0.0, 1e12)
        assert exact == pytest.approx(205.0, rel=1e-6)  # one write, not two

    def test_convex_in_interval(self):
        """Too-frequent and too-rare snapshotting both cost more than tau*."""
        mtbf, delta = 6 * 3600.0, 30.0
        tau = young_daly_interval(mtbf, delta)
        at = lambda i: daly_expected_makespan(86400.0, i, delta, 60.0, mtbf)  # noqa: E731
        assert at(tau) < at(tau / 8)
        assert at(tau) < at(tau * 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            daly_expected_makespan(-1.0, 10.0, 1.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            daly_expected_makespan(10.0, 0.0, 1.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            daly_expected_makespan(10.0, 1.0, -1.0, 1.0, 100.0)


class TestSimulationAgreement:
    def test_monte_carlo_matches_closed_form(self):
        mtbf, delta = 4 * 3600.0, 20.0
        tau = young_daly_interval(mtbf, delta)
        predicted = daly_expected_makespan(43200.0, tau, delta, 60.0, mtbf)
        measured = simulate_makespan(
            43200.0, tau, delta, 60.0, PoissonFaults(mtbf),
            np.random.default_rng(0), trials=120,
        )
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            simulate_makespan(
                100.0, 10.0, 1.0, 1.0, PoissonFaults(100.0),
                np.random.default_rng(0), trials=0,
            )


class TestYoungDalyRecovery:
    @pytest.mark.parametrize(
        "mtbf_hours,delta",
        # the >= 2 (MTBF, cost) settings, then a flaky SD card and a
        # stable eMMC node
        [(6.0, 30.0), (2.0, 5.0), (2.0, 30.0), (12.0, 2.0)],
    )
    def test_sweep_recovers_optimum(self, mtbf_hours, delta):
        """The measured minimum lands on tau*'s grid point or a factor-2
        neighbour — the subsystem's acceptance criterion."""
        sweep = sweep_intervals(
            24 * 3600.0, delta, 60.0, mtbf_hours * 3600.0, trials=60, seed=0
        )
        assert sweep.tau_star_seconds == pytest.approx(
            young_daly_interval(mtbf_hours * 3600.0, delta)
        )
        assert sweep.recovers_young_daly()

    def test_render_marks_best(self):
        sweep = sweep_intervals(6 * 3600.0, 10.0, 60.0, 3 * 3600.0, trials=10, seed=1)
        text = sweep.render()
        assert "tau*" in text and "<-*" in text
        assert len(text.splitlines()) == len(sweep.rows) + 3

    def test_empty_grid_rejected(self):
        with pytest.raises(PlanningError):
            sweep_intervals(100.0, 1.0, 1.0, 100.0, grid_factors=())


class TestOverheadCurve:
    def test_overhead_grows_as_mtbf_shrinks(self):
        rows = overhead_vs_fault_rate(
            12 * 3600.0, 10.0, 60.0,
            (3600.0, 6 * 3600.0, 24 * 3600.0), trials=40, seed=0,
        )
        assert [r.mtbf_seconds for r in rows] == [3600.0, 6 * 3600.0, 24 * 3600.0]
        predicted = [r.predicted_overhead for r in rows]
        assert predicted == sorted(predicted, reverse=True)
        measured = [r.measured_overhead for r in rows]
        assert measured[0] > measured[-1]
        assert all(m >= 0.0 for m in measured)

    def test_each_rate_uses_its_own_tau_star(self):
        rows = overhead_vs_fault_rate(
            3600.0, 10.0, 60.0, (3600.0, 4 * 3600.0), trials=5, seed=0
        )
        assert rows[1].tau_star_seconds == pytest.approx(
            2 * rows[0].tau_star_seconds
        )
