"""In-situ campaign simulation: harvest -> idle-time training -> target."""

import pytest

from repro.edge import (
    CampaignConfig,
    LearningCurve,
    ODROID_XU4,
    TrainingWorkload,
    run_campaign,
)
from repro.errors import PlanningError
from repro.units import MB


def workload(batch=8):
    return TrainingWorkload(
        model="student",
        chain_length=18,
        slot_act_bytes_per_sample=2 * MB,
        fixed_bytes=180 * MB,
        flops_per_sample=3.6e9,
        n_images=1,
        batch_size=batch,
    )


def config(**kw):
    base = dict(workload=workload(), target_accuracy=0.9, seed=0)
    base.update(kw)
    return CampaignConfig(**base)


class TestLearningCurve:
    def test_monotone_saturating(self):
        c = LearningCurve()
        accs = [c.accuracy(n) for n in (0, 100, 1000, 10_000, 100_000)]
        assert accs == sorted(accs)
        assert accs[0] == pytest.approx(c.floor)
        assert accs[-2] < c.ceiling  # strictly below until saturation
        assert accs[-1] <= c.ceiling

    def test_inverse(self):
        c = LearningCurve()
        n = c.images_for(0.9)
        assert c.accuracy(n) >= 0.9
        assert c.accuracy(max(0, n - 1)) < 0.9 or n == 0

    def test_target_out_of_range(self):
        with pytest.raises(PlanningError):
            LearningCurve(ceiling=0.9).images_for(0.95)

    def test_validation(self):
        with pytest.raises(PlanningError):
            LearningCurve(floor=0.9, ceiling=0.5)
        with pytest.raises(PlanningError):
            LearningCurve(scale=0)


class TestCampaign:
    def test_reaches_target(self):
        res = run_campaign(config(), ODROID_XU4)
        assert res.reached_target
        assert res.target_day is not None
        assert res.final_accuracy >= 0.9
        assert res.storage_ok

    def test_more_traffic_faster(self):
        slow = run_campaign(config(crossings_per_day=20.0), ODROID_XU4)
        fast = run_campaign(config(crossings_per_day=200.0), ODROID_XU4)
        assert fast.target_day <= slow.target_day

    def test_traffic_sweep(self):
        """20 / 60 / 200 crossings a day: every level reaches the target,
        days to target never rise with traffic, storage stays within the
        card, and wall time never undercuts compute time."""
        results = [
            run_campaign(config(crossings_per_day=t, seed=1), ODROID_XU4)
            for t in (20.0, 60.0, 200.0)
        ]
        assert all(res.reached_target for res in results)
        days = [res.target_day for res in results]
        assert days == sorted(days, reverse=True)
        for res in results:
            assert res.storage_ok
            for day in res.days:
                assert day.train_wall_s >= day.train_compute_s

    def test_higher_target_takes_longer(self):
        low = run_campaign(config(target_accuracy=0.7), ODROID_XU4)
        high = run_campaign(config(target_accuracy=0.95), ODROID_XU4)
        assert high.target_day >= low.target_day

    def test_unreachable_target_times_out(self):
        res = run_campaign(
            config(target_accuracy=0.969, crossings_per_day=0.1, max_days=5),
            ODROID_XU4,
        )
        assert not res.reached_target
        assert res.target_day is None
        assert len(res.days) == 5

    def test_wall_time_exceeds_compute(self):
        res = run_campaign(config(), ODROID_XU4)
        for day in res.days:
            assert day.train_wall_s >= day.train_compute_s

    def test_harvest_monotone(self):
        res = run_campaign(config(), ODROID_XU4)
        totals = [d.harvested_total for d in res.days]
        assert totals == sorted(totals)

    def test_deterministic_under_seed(self):
        a = run_campaign(config(seed=7), ODROID_XU4)
        b = run_campaign(config(seed=7), ODROID_XU4)
        assert a.target_day == b.target_day
        assert a.days[-1].harvested_total == b.days[-1].harvested_total
