"""Fleet simulation: isolation vs federation, communication priced."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.edge import FleetConfig, quantize_effective, simulate_fleet
from repro.errors import PlanningError
from repro.obs import tracing

#: name -> (FleetConfig kwargs, sha256 of ``repr(astuple(result))``,
#: sha256 of the traced node_crash/federation_round events plus the
#: ``fleet`` span tags).  Captured from the per-node loop engine this
#: vectorized one replaced; "federated" is also ``repro fleet``'s
#: federated run at its defaults.  Covers faults on/off, federation
#: on/off, snapshot cadences, instant and sub-day outages, one node.
GOLDEN = {
    "defaults": (
        dict(),
        "1642180908675ca426a749d9494cb5a5cd5e7989146952ef728ffda9fdaaf99d",
        "99f22daa92d7aeff387cd92f3fcf7fba76dbd3c592418048368281ef6d883e05",
    ),
    "federated": (
        dict(federation_period=5),
        "9e992e13fb6f1aba817199644e082a6902d1654d4fd76f740b69f0361cc80674",
        "7dc5125bb9fb96e76ff103c4c13ce89c17a4fb05aa211ba6e1da5d100e7a299e",
    ),
    "faults": (
        dict(crash_rate_per_day=0.05, n_nodes=50, days=40, seed=7),
        "29d72f651884862bd24938fe5d400daf5b7a9c0a42926e49c1995bf227cad92b",
        "6fbc134a37d987a19da77cab3c46e63db0df23b203ae21cdc0b7740be394b1d5",
    ),
    "faults_federated": (
        dict(
            crash_rate_per_day=0.05, federation_period=5, snapshot_period_days=3,
            outage_days_mean=2.5, n_nodes=100, days=60, seed=7,
        ),
        "46f15702a85d2fbae5ed7bf74104e5bbe96a6f5a0bb2b93c6986f44cd0ffc3f1",
        "4d8e6b44e50e124a6eac0fa8af3ca01f9f92132e7b98bb6282b729f5f54bc48e",
    ),
    "instant_rejoin": (
        dict(crash_rate_per_day=0.2, outage_days_mean=0.0, seed=3),
        "6daaddc1af18bab0e5cee608596ea9dfd6900f3cfa834a5697b3ace7dd6d8091",
        "49db32d69c4f44e9a860c1028719cabb422df1767bfca919f0870394adaae4a3",
    ),
    "subday_outage": (
        dict(crash_rate_per_day=0.1, outage_days_mean=0.4, n_nodes=37, days=45, seed=11),
        "413d7ded7a1201948fde3b7fd0213550fbe582be14ca030485a13604a80fa878",
        "e63d25bb8ba02e6ab4358cf36cee179b3f51664dcd9b7b6979d2c49e8ab8af37",
    ),
    "single_node": (
        dict(n_nodes=1, crash_rate_per_day=0.1, days=25, seed=5),
        "688f26afc966d7306dade29eba985f3b48b36d343405593575f1f9f618c511fd",
        "343705e9dce7479b02772041605ae7169c5429c97a695a5a074d15ab8d1f40de",
    ),
    "high_crash": (
        dict(crash_rate_per_day=0.5, n_nodes=20, days=30, seed=13),
        "d114cd8edd78ab84ec08c30cc3249286ae87f8960cec1f6afd9a4e61ecab0136",
        "333f587a12ade6d7d180c5c253352f1b31f32d50b29a665f6b9e9cee2b354279",
    ),
    "per_node": (
        dict(
            n_nodes=100, days=60, crash_rate_per_day=0.08, snapshot_period_days=4,
            outage_days_mean=2.0, federation_period=10, seed=42,
        ),
        "aa6b36bfbb506797286d8778359f5561e3d45308150e8149f567870dfe095f2c",
        "be2c923f8153a14dc43ee7220ebb54c88fe4957ec003973c031c2616d2baf7e2",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_result_and_trace(name):
    """Every float of every FleetDay and per-node tuple, and every traced
    event, matches the seeded stream bit for bit."""
    kw, result_digest, trace_digest = GOLDEN[name]
    cfg = FleetConfig(**kw)
    res = simulate_fleet(cfg)
    with tracing() as tracer:
        assert simulate_fleet(cfg) == res
    events = [
        (e.name, e.category, sorted(e.tags.items()))
        for e in tracer.events()
        if e.name in ("node_crash", "federation_round")
    ]
    (span,) = [s for s in tracer.spans() if s.name == "fleet"]
    assert _sha(repr(dataclasses.astuple(res))) == result_digest
    assert _sha(repr(events) + repr(sorted(span.tags.items()))) == trace_digest


def test_day_and_final_accuracy_share_one_quantization():
    """The last trajectory point is priced exactly as the final
    accuracies: both floor through ``quantize_effective``."""
    res = simulate_fleet(FleetConfig(n_nodes=16, days=30, federation_period=3, seed=9))
    assert res.days[-1].mean_accuracy == float(np.mean(res.final_accuracies))
    assert res.days[-1].min_accuracy == float(np.min(res.final_accuracies))


def cfg(**kw):
    base = dict(n_nodes=8, days=20, seed=3)
    base.update(kw)
    return FleetConfig(**base)


class TestFleet:
    def test_isolated_no_radio(self):
        res = simulate_fleet(cfg(federation_period=0))
        assert res.radio_bytes_total == 0

    def test_federated_pays_radio(self):
        res = simulate_fleet(cfg(federation_period=5))
        # 4 rounds x 2 x model_bytes x nodes
        assert res.radio_bytes_total == 4 * 2 * 50_000_000 * 8

    def test_accuracy_trajectories_monotone(self):
        res = simulate_fleet(cfg())
        means = [d.mean_accuracy for d in res.days]
        assert means == sorted(means)

    def test_federation_helps_slow_nodes(self):
        """Sharing lifts the fleet *minimum* (low-traffic nodes gain most)."""
        iso = simulate_fleet(cfg(federation_period=0))
        fed = simulate_fleet(cfg(federation_period=5))
        assert fed.worst_final_accuracy >= iso.worst_final_accuracy

    def test_low_transfer_value_limits_benefit(self):
        """The paper's caveat: viewpoint-specific knowledge transfers
        poorly, so federation's gain shrinks with transfer_value."""
        none = simulate_fleet(cfg(federation_period=5, transfer_value=0.0))
        some = simulate_fleet(cfg(federation_period=5, transfer_value=0.5))
        assert some.mean_final_accuracy >= none.mean_final_accuracy
        iso = simulate_fleet(cfg(federation_period=0))
        assert none.mean_final_accuracy == pytest.approx(iso.mean_final_accuracy)

    def test_heterogeneous_traffic(self):
        res = simulate_fleet(cfg(days=30))
        accs = res.final_accuracies
        assert max(accs) - min(accs) > 0.0  # nodes genuinely differ

    def test_day_reaching_target(self):
        res = simulate_fleet(cfg(days=60, crossings_per_day_mean=200.0))
        day = res.day_reaching(0.7)
        assert day is not None
        assert res.days[day - 1].min_accuracy >= 0.7

    def test_deterministic_under_seed(self):
        a = simulate_fleet(cfg(seed=11))
        b = simulate_fleet(cfg(seed=11))
        assert a.final_accuracies == b.final_accuracies

    def test_validation(self):
        with pytest.raises(PlanningError):
            FleetConfig(n_nodes=0)
        with pytest.raises(PlanningError):
            FleetConfig(transfer_value=1.5)
        with pytest.raises(PlanningError):
            FleetConfig(federation_period=-1)
        with pytest.raises(PlanningError):
            FleetConfig(crash_rate_per_day=1.0)
        with pytest.raises(PlanningError):
            FleetConfig(snapshot_period_days=0)
        with pytest.raises(PlanningError):
            FleetConfig(outage_days_mean=-0.5)

    @pytest.mark.parametrize(
        "kw",
        (
            dict(images_per_crossing=math.nan),
            dict(model_bytes=-1, federation_period=5),
            dict(traffic_shape=0),
            dict(crash_rate_per_day=0.1, outage_days_mean=math.nan),
            dict(crossings_per_day_mean=math.nan),
            dict(traffic_shape=math.nan),
            dict(outage_days_mean=math.inf),
            dict(n_nodes=math.nan),
            dict(snapshot_period_days=math.nan),
            dict(seed=-1),
        ),
        ids=(
            "images-nan", "model-bytes-negative", "traffic-shape-zero",
            "outage-nan", "crossings-nan", "traffic-shape-nan", "outage-inf",
            "nodes-nan", "snapshot-nan", "seed-negative",
        ),
    )
    def test_rejects_nan_and_invalid_fields(self, kw):
        """Each of these used to run and return garbage (NaN accuracy,
        negative radio bytes, silently 1-day outages) or crash inside
        the simulation instead of failing at construction."""
        with pytest.raises(PlanningError):
            FleetConfig(**kw)


class TestFleetFaults:
    def test_happy_path_rng_stream_unchanged(self):
        """crash_rate=0 must draw exactly the random stream the pre-fault
        simulator drew: seeded happy-path results are frozen."""
        res = simulate_fleet(cfg())
        assert res.total_crashes == 0
        assert res.total_lost_samples == 0.0
        assert all(d.nodes_up == 8 for d in res.days)

    def test_crashes_lose_work_and_rejoin(self):
        res = simulate_fleet(
            cfg(days=40, crash_rate_per_day=0.08, outage_days_mean=2.0)
        )
        assert res.total_crashes > 0
        assert res.total_lost_samples > 0
        assert sum(res.downtime_days) > 0
        # nodes rejoin: the fleet is never permanently dark
        assert res.days[-1].nodes_up > 0
        assert len(res.crashes) == len(res.lost_samples) == 8

    def test_graceful_degradation(self):
        """Accuracy under faults degrades but does not collapse."""
        happy = simulate_fleet(cfg(days=40))
        faulty = simulate_fleet(cfg(days=40, crash_rate_per_day=0.08))
        assert faulty.mean_final_accuracy <= happy.mean_final_accuracy
        assert faulty.mean_final_accuracy > 0.5 * happy.mean_final_accuracy

    def test_frequent_snapshots_bound_losses(self):
        """Daily snapshots lose at most one day of harvest per crash;
        sparse snapshots lose more."""
        daily = simulate_fleet(
            cfg(days=60, crash_rate_per_day=0.1, snapshot_period_days=1)
        )
        sparse = simulate_fleet(
            cfg(days=60, crash_rate_per_day=0.1, snapshot_period_days=10)
        )
        assert daily.total_crashes > 0 and sparse.total_crashes > 0
        assert (
            sparse.total_lost_samples / sparse.total_crashes
            > daily.total_lost_samples / daily.total_crashes
        )

    def test_deterministic_under_seed(self):
        a = simulate_fleet(cfg(crash_rate_per_day=0.1, seed=5))
        b = simulate_fleet(cfg(crash_rate_per_day=0.1, seed=5))
        assert a.crashes == b.crashes
        assert a.lost_samples == b.lost_samples
        assert a.final_accuracies == b.final_accuracies

    def test_zero_outage_rejoins_next_day(self):
        res = simulate_fleet(
            cfg(days=30, crash_rate_per_day=0.2, outage_days_mean=0.0)
        )
        assert res.total_crashes > 0
        assert sum(res.downtime_days) == 0

    def test_crash_events_traced(self):
        from repro.obs import tracing

        with tracing() as tracer:
            res = simulate_fleet(cfg(days=40, crash_rate_per_day=0.1))
        events = [e for e in tracer.events() if e.name == "node_crash"]
        assert len(events) == res.total_crashes
        assert all(e.category == "fault" for e in events)
        assert {"day", "node", "lost_samples", "rejoin_day"} <= set(events[0].tags)


class TestFleetValidationEdges:
    def test_subunit_outage_mean_clamps_to_one_day(self):
        """outage_days_mean < 1 clamps the geometric's p to 1: every
        outage is exactly one extra day, never zero or fractional."""
        res = simulate_fleet(
            cfg(days=60, crash_rate_per_day=0.2, outage_days_mean=0.3)
        )
        assert res.total_crashes > 0
        assert sum(res.downtime_days) == res.total_crashes  # one day each

    def test_outage_mean_exactly_one_behaves_like_subunit(self):
        """The clamp boundary: mean=1.0 also gives p=1, so the two
        configs share crash counts (same stream) and downtime."""
        lo = simulate_fleet(cfg(days=60, crash_rate_per_day=0.2, outage_days_mean=0.3))
        one = simulate_fleet(cfg(days=60, crash_rate_per_day=0.2, outage_days_mean=1.0))
        assert lo.crashes == one.crashes
        assert lo.downtime_days == one.downtime_days

    def test_crash_on_snapshot_day_keeps_prior_snapshot(self):
        """A crash fires before the day's durable write: work since the
        *previous* snapshot is lost even when the crash day itself is a
        snapshot day, so sparse cadences leak more per crash."""
        sparse = simulate_fleet(
            cfg(n_nodes=200, days=60, crash_rate_per_day=0.1, snapshot_period_days=5)
        )
        assert sparse.total_crashes > 0
        # Mean harvest is hundreds of images/day; if the crash-day
        # snapshot were (wrongly) taken first, per-crash loss would be
        # bounded by a single day's harvest.
        assert sparse.total_lost_samples / sparse.total_crashes > 1000.0

    def test_snapshot_every_day_loses_at_most_one_day(self):
        res = simulate_fleet(
            cfg(n_nodes=200, days=60, crash_rate_per_day=0.1, snapshot_period_days=1)
        )
        assert res.total_crashes > 0
        # crossings 60/day x 18 img: one lost day is ~1080 on average
        assert res.total_lost_samples / res.total_crashes < 3000.0

    def test_quantize_effective_matches_int_truncation(self):
        e = np.array([0.0, 0.4, 1.0, 17.9, 1234.5])
        assert quantize_effective(e).tolist() == [float(int(x)) for x in e]
