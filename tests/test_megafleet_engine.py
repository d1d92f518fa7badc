"""Native megafleet engine: determinism contract, RNG, events, presets."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanningError
from repro.megafleet import (
    BLOCK,
    CRASH,
    FEDERATION,
    REPORT,
    DayEventQueue,
    DeviceCohort,
    MegaFleetConfig,
    model_bytes,
    preset_config,
    run_megafleet,
    shard_tasks,
)
from repro.megafleet.rng import TAG_CRASH, TAG_RATE, device_keys, erlang, geometric, uniforms


def payload_bytes(result) -> bytes:
    """Canonical serialization of the execution-independent aggregates."""
    return json.dumps(result.to_payload(), sort_keys=True).encode()


def small_cfg(**kw):
    base = dict(
        cohorts=(
            DeviceCohort(name="a", count=300, mtbf_days=20.0, snapshot_period_days=2),
            DeviceCohort(name="b", count=200, mtbf_days=40.0, crossings_per_day_mean=90.0),
        ),
        days=25,
        federation_period=5,
        seed=4,
    )
    base.update(kw)
    return MegaFleetConfig(**base)


class TestRng:
    def test_draws_are_pure_functions(self):
        keys = device_keys(1, "c", 64)
        assert np.array_equal(
            uniforms(keys, TAG_CRASH, np.uint64(3)),
            uniforms(keys, TAG_CRASH, np.uint64(3)),
        )

    def test_uniforms_in_unit_interval(self):
        u = uniforms(device_keys(0, "c", 10_000), TAG_RATE, np.uint64(0))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert 0.45 < u.mean() < 0.55

    def test_device_keys_slice_by_start(self):
        """A shard's keys equal the whole cohort's keys at its ordinals."""
        whole = device_keys(9, "c", 100)
        assert np.array_equal(device_keys(9, "c", 40, start=60), whole[60:])

    def test_keys_differ_by_cohort_and_seed(self):
        a = device_keys(0, "a", 50)
        assert not np.array_equal(a, device_keys(0, "b", 50))
        assert not np.array_equal(a, device_keys(1, "a", 50))

    def test_geometric_clamps(self):
        u = np.array([0.0, 0.5, 0.999999])
        assert np.array_equal(geometric(u, 1.0), [1, 1, 1])  # p >= 1: always day 1
        assert np.array_equal(geometric(u, 0.0), [0, 0, 0])  # p <= 0: never (masked)
        g = geometric(u, 0.25)
        assert g.min() >= 1

    def test_geometric_mean_matches_distribution(self):
        u = uniforms(device_keys(0, "g", 200_000), TAG_CRASH, np.uint64(0))
        assert geometric(u, 0.1).mean() == pytest.approx(10.0, rel=0.05)

    def test_erlang_positive_with_expected_mean(self):
        r = erlang(device_keys(0, "e", 200_000), TAG_RATE, 2, 30.0)
        assert r.min() > 0
        assert r.mean() == pytest.approx(60.0, rel=0.05)  # shape * scale

    def test_erlang_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            erlang(device_keys(0, "e", 4), TAG_RATE, 0, 1.0)


class TestEventQueue:
    def test_within_day_order_crash_federation_report(self):
        q = DayEventQueue()
        q.push(3, REPORT)
        q.push(3, CRASH, np.array([1], dtype=np.int64))
        q.push(3, FEDERATION)
        q.push(1, REPORT)
        fired = [q.pop()[:2] for _ in range(len(q))]
        assert fired == [(1, REPORT), (3, CRASH), (3, FEDERATION), (3, REPORT)]

    def test_payloads_merge_and_sort(self):
        q = DayEventQueue()
        q.push(2, CRASH, np.array([5, 3], dtype=np.int64))
        q.push(2, CRASH, np.array([1], dtype=np.int64))
        day, kind, idx = q.pop()
        assert (day, kind) == (2, CRASH)
        assert idx.tolist() == [1, 3, 5]

    def test_push_crashes_drops_beyond_horizon(self):
        q = DayEventQueue()
        q.push_crashes(
            np.array([2, 50, 7]), np.arange(3, dtype=np.int64), horizon=10
        )
        seen = []
        while len(q):
            day, _, idx = q.pop()
            seen.append((day, idx.tolist()))
        assert seen == [(2, [0]), (7, [2])]


class TestDeterminismContract:
    def test_jobs_do_not_change_a_byte(self):
        cfg = small_cfg()
        assert payload_bytes(run_megafleet(cfg, jobs=1)) == payload_bytes(
            run_megafleet(cfg, jobs=2)
        )

    def test_shard_size_does_not_change_a_byte(self):
        cfg = small_cfg()
        ref = payload_bytes(run_megafleet(cfg, shard_devices=BLOCK))
        for span in (2 * BLOCK, 100):  # 100 rounds up to one block
            assert payload_bytes(run_megafleet(cfg, shard_devices=span)) == ref

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), span=st.sampled_from([1, 2, 3]))
    def test_property_shard_count_invariance(self, seed, span):
        """For arbitrary seeds, shard layout never changes the payload."""
        cfg = small_cfg(seed=seed, federation_period=0, days=10)
        assert payload_bytes(
            run_megafleet(cfg, shard_devices=span * BLOCK)
        ) == payload_bytes(run_megafleet(cfg, shard_devices=4 * BLOCK))

    def test_cohort_order_permutation_invariance(self):
        """Reordering cohorts permutes nothing observable: integer
        aggregates are exact; float sums may reassociate (block order
        changes) so they match to numerical tolerance."""
        cfg = small_cfg()
        flipped = MegaFleetConfig(
            cohorts=tuple(reversed(cfg.cohorts)),
            days=cfg.days,
            federation_period=cfg.federation_period,
            seed=cfg.seed,
        )
        a, b = run_megafleet(cfg), run_megafleet(flipped)
        assert a.total_crashes == b.total_crashes
        assert a.total_downtime_days == b.total_downtime_days
        assert a.total_lost_samples == pytest.approx(b.total_lost_samples, rel=1e-12)
        assert a.total_harvest == pytest.approx(b.total_harvest, rel=1e-12)
        by_name = {c.name: c for c in b.cohorts}
        for c in a.cohorts:  # per-cohort stats are exactly preserved
            assert c == by_name[c.name]
        for da, db in zip(a.trajectory, b.trajectory):
            assert da.day == db.day
            assert da.devices_up == db.devices_up
            assert da.min_accuracy == db.min_accuracy  # min is order-free
            assert da.mean_accuracy == pytest.approx(db.mean_accuracy, rel=1e-12)

    def test_report_stride_subsamples_the_same_trajectory(self):
        """Coarser reporting is a subset, not a different simulation."""
        fine = run_megafleet(small_cfg(report_every=1))
        coarse = run_megafleet(small_cfg(report_every=5))
        fine_by_day = {d.day: d for d in fine.trajectory}
        for d in coarse.trajectory:
            assert d == fine_by_day[d.day]


class TestEngineBehavior:
    def test_no_faults_no_damage(self):
        cfg = MegaFleetConfig(
            cohorts=(DeviceCohort(name="calm", count=500, mtbf_days=0.0),),
            days=20,
        )
        r = run_megafleet(cfg)
        assert r.total_crashes == 0
        assert r.total_lost_samples == 0.0
        assert r.trajectory[-1].devices_up == 500

    def test_isolated_pays_no_radio(self):
        r = run_megafleet(small_cfg(federation_period=0))
        assert r.radio_bytes_total == 0

    def test_federation_radio_is_cohort_weighted(self):
        cfg = small_cfg(federation_period=5, days=25)
        r = run_megafleet(cfg)
        per_round = sum(2 * model_bytes(c.model_depth) * c.count for c in cfg.cohorts)
        assert r.radio_bytes_total == 5 * per_round

    def test_federation_lifts_the_minimum(self):
        iso = run_megafleet(small_cfg(federation_period=0))
        fed = run_megafleet(small_cfg(federation_period=5))
        assert fed.min_final_accuracy > iso.min_final_accuracy

    def test_faults_cost_accuracy(self):
        calm = run_megafleet(
            small_cfg(
                cohorts=(DeviceCohort(name="a", count=400, mtbf_days=0.0),),
                federation_period=0,
            )
        )
        faulty = run_megafleet(
            small_cfg(
                cohorts=(
                    DeviceCohort(
                        name="a", count=400, mtbf_days=5.0, outage_days_mean=3.0
                    ),
                ),
                federation_period=0,
            )
        )
        assert faulty.total_crashes > 0
        assert faulty.mean_final_accuracy < calm.mean_final_accuracy

    def test_snapshot_cadence_bounds_loss(self):
        """Daily snapshots lose at most ~a day of harvest per crash."""
        daily = run_megafleet(
            small_cfg(
                cohorts=(
                    DeviceCohort(name="a", count=400, mtbf_days=10.0,
                                 snapshot_period_days=1),
                ),
                federation_period=0,
            )
        )
        weekly = run_megafleet(
            small_cfg(
                cohorts=(
                    DeviceCohort(name="a", count=400, mtbf_days=10.0,
                                 snapshot_period_days=7),
                ),
                federation_period=0,
            )
        )
        assert daily.total_lost_samples < weekly.total_lost_samples

    def test_shard_tasks_cut_only_at_block_boundaries(self):
        cfg = small_cfg(
            cohorts=(
                DeviceCohort(name="a", count=3 * BLOCK + 17),
                DeviceCohort(name="b", count=5),
            )
        )
        for _, start, stop in shard_tasks(cfg, shard_devices=BLOCK + 1):
            assert start % BLOCK == 0
        stops = [t[2] for t in shard_tasks(cfg, shard_devices=BLOCK)]
        assert stops[-1] == 5  # cohort ends are always legal cut points

    def test_payload_is_strict_json(self):
        doc = run_megafleet(small_cfg()).to_payload()
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
        assert "n_shards" not in doc  # execution metadata stays out


class TestPresetsAndValidation:
    def test_mixed_preset_partitions_devices(self):
        cfg = preset_config("mixed", 10_000)
        assert cfg.n_devices == 10_000
        assert len(cfg.cohorts) == 4
        assert len({c.storage for c in cfg.cohorts}) == 2  # sd-card and emmc

    def test_uniform_preset_single_cohort(self):
        cfg = preset_config("uniform", 1234)
        assert [c.count for c in cfg.cohorts] == [1234]

    def test_unknown_preset_rejected(self):
        with pytest.raises(PlanningError):
            preset_config("exotic", 100)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(count=0),
            dict(model_depth=64),
            dict(storage="tape"),
            dict(traffic_shape=0),
            dict(duty_cycle=0.0),
            dict(duty_cycle=1.5),
            dict(mtbf_days=-1.0),
            dict(snapshot_period_days=0),
            dict(outage_days_mean=-0.1),
            # NaN slipped past the old ``x < 0``-style checks
            # (``mtbf_days=nan`` silently meant a crash-free cohort).
            dict(mtbf_days=math.nan),
            dict(crossings_per_day_mean=math.nan),
            dict(outage_days_mean=math.nan),
            dict(images_per_crossing=math.nan),
            dict(crossings_per_day_mean=math.inf),
            dict(outage_days_mean=math.inf),
            dict(count=math.nan),
            dict(snapshot_period_days=math.nan),
            dict(traffic_shape=math.nan),
        ],
    )
    def test_cohort_validation(self, kw):
        base = dict(name="c", count=10)
        base.update(kw)
        with pytest.raises(PlanningError):
            DeviceCohort(**base)

    def test_config_rejects_duplicate_cohort_names(self):
        with pytest.raises(PlanningError):
            MegaFleetConfig(
                cohorts=(
                    DeviceCohort(name="x", count=1),
                    DeviceCohort(name="x", count=2),
                )
            )

    def test_config_needs_cohorts_and_days(self):
        with pytest.raises(PlanningError):
            MegaFleetConfig(cohorts=())
        with pytest.raises(PlanningError):
            MegaFleetConfig(cohorts=(DeviceCohort(name="x", count=1),), days=0)

    def test_model_bytes_matches_zoo(self):
        from repro.zoo import build_resnet

        assert model_bytes(34) == build_resnet(34, image_size=64).trainable_bytes
        with pytest.raises(PlanningError):
            model_bytes(19)

    def test_report_days_always_include_final(self):
        cfg = small_cfg(report_every=0)
        assert cfg.report_days() == (cfg.days,)
        cfg = small_cfg(report_every=7, days=25)
        assert cfg.report_days() == (7, 14, 21, 25)
