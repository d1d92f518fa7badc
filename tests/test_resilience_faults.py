"""Fault models and the training fault injector."""

import numpy as np
import pytest

from repro.errors import FaultError
from repro.resilience import FaultInjector, PoissonFaults, TransientDiskFaults


class TestFaultModels:
    @pytest.mark.parametrize(
        "model",
        [
            PoissonFaults(mtbf_seconds=3600.0),
        ],
    )
    def test_sample_mean_matches_mtbf(self, model):
        rng = np.random.default_rng(0)
        draws = [model.sample_time_to_failure(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(model.mtbf_seconds, rel=0.05)

    def test_crash_times_sorted_within_horizon(self):
        rng = np.random.default_rng(1)
        times = PoissonFaults(mtbf_seconds=100.0).crash_times(rng, 1000.0)
        assert list(times) == sorted(times)
        assert all(0 <= t < 1000.0 for t in times)
        assert len(times) > 3  # ~10 expected

    def test_crash_times_deterministic_under_seed(self):
        a = PoissonFaults(50.0).crash_times(np.random.default_rng(7), 500.0)
        b = PoissonFaults(50.0).crash_times(np.random.default_rng(7), 500.0)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonFaults(mtbf_seconds=0)
        with pytest.raises(ValueError):
            TransientDiskFaults(write_failure_probability=1.0)
        with pytest.raises(ValueError):
            PoissonFaults(100.0).crash_times(np.random.default_rng(0), -1.0)


class TestTransientDisk:
    def test_zero_probability_never_fails_without_drawing(self):
        faults = TransientDiskFaults(0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert not faults.write_fails(rng)
        assert rng.bit_generator.state == state  # stream untouched

    def test_failure_rate_empirical(self):
        faults = TransientDiskFaults(0.25)
        rng = np.random.default_rng(3)
        fails = sum(faults.write_fails(rng) for _ in range(10_000))
        assert fails / 10_000 == pytest.approx(0.25, abs=0.02)


class TestFaultInjector:
    def test_fires_once_per_planned_step(self):
        inj = FaultInjector([3, 5])
        inj.check(1)
        inj.check(2)
        with pytest.raises(FaultError) as exc:
            inj.check(3)
        assert exc.value.step == 3
        inj.check(3)  # resumed run sails past the crash site
        inj.check(4)
        with pytest.raises(FaultError):
            inj.check(5)
        inj.check(6)
        assert inj.fired == [3, 5]
        assert inj.pending_steps == ()

    def test_late_check_still_fires(self):
        """A kill planned mid-step fires at the first check at/after it."""
        inj = FaultInjector([2])
        with pytest.raises(FaultError):
            inj.check(10)
        assert inj.fired == [2]

    def test_steps_deduped_and_sorted(self):
        inj = FaultInjector([9, 2, 2, 9])
        assert inj.pending_steps == (2, 9)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            FaultInjector([0])

    def test_from_model_plans_within_run(self):
        rng = np.random.default_rng(5)
        inj = FaultInjector.from_model(
            PoissonFaults(mtbf_seconds=50.0), step_seconds=1.0, total_steps=200, rng=rng
        )
        assert inj.pending_steps  # ~4 crashes expected over the horizon
        assert all(1 <= s <= 200 for s in inj.pending_steps)

    def test_from_model_deterministic_under_seed(self):
        plan = lambda seed: FaultInjector.from_model(  # noqa: E731
            PoissonFaults(40.0), 0.5, 300, np.random.default_rng(seed)
        ).pending_steps
        assert plan(11) == plan(11)
