"""E20 (extension) — fleet: federation trade-off + engine throughput.

Two benches share this file:

* the original 10-node federation cost/benefit sweep (accuracy vs radio
  across transfer-value assumptions, ``fleet.csv``);
* the fleet-engine throughput of the two engines — the seeded
  ``simulate_fleet`` and the native event-driven megafleet — reported
  as simulated device-days per second of wall clock in
  ``BENCH_fleet.json``.  The megafleet row is a hard gate: the ROADMAP's
  million-device north star requires ≥ 1M device-days/s.

Timings use ``time.perf_counter`` directly (not pytest-benchmark) so CI
can run this file with the plain pytest it has.
"""

import time

from repro.edge import FleetConfig, simulate_fleet
from repro.megafleet import preset_config, run_megafleet
from repro.units import GB

#: the hard throughput gate for the native engine (device-days / s)
MEGAFLEET_GATE = 1_000_000

SCENARIOS = {
    "isolated": dict(federation_period=0),
    "fed_lowtransfer": dict(federation_period=5, transfer_value=0.15),
    "fed_hightransfer": dict(federation_period=5, transfer_value=0.6),
}


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_fleet_federation_tradeoff(outdir):
    results = {}
    for name, kw in SCENARIOS.items():
        results[name], _ = _timed(
            simulate_fleet,
            FleetConfig(n_nodes=10, days=30, crossings_per_day_mean=40.0, seed=4, **kw),
        )

    lines = ["scenario,mean_acc,worst_acc,radio_gb"]
    for name, res in results.items():
        lines.append(
            f"{name},{res.mean_final_accuracy:.4f},{res.worst_final_accuracy:.4f},"
            f"{res.radio_bytes_total / GB:.2f}"
        )
    (outdir / "fleet.csv").write_text("\n".join(lines) + "\n")

    iso = results["isolated"]
    low = results["fed_lowtransfer"]
    high = results["fed_hightransfer"]
    # Federation costs real bandwidth...
    assert iso.radio_bytes_total == 0
    assert low.radio_bytes_total > GB
    # ...helps in proportion to how transferable the knowledge is...
    assert high.mean_final_accuracy >= low.mean_final_accuracy >= iso.mean_final_accuracy
    # ...and at low (viewpoint-specific) transfer value the mean gain is
    # marginal — the paper's caution, quantified.
    gain_low = low.mean_final_accuracy - iso.mean_final_accuracy
    gain_high = high.mean_final_accuracy - iso.mean_final_accuracy
    assert gain_low < 0.5 * max(gain_high, 1e-9) or gain_low < 0.05


def test_fleet_engine_throughput(bench_json):
    """simulate_fleet and megafleet, the latter gated at 1M device-days/s."""
    fleet_cfg = FleetConfig(
        n_nodes=20_000, days=30, crash_rate_per_day=0.02, federation_period=5, seed=0
    )
    fleet_res, fleet_s = _timed(simulate_fleet, fleet_cfg)

    mega_cfg = preset_config(
        "mixed", 1_000_000, days=30, federation_period=0, report_every=0, seed=0
    )
    mega_res, mega_s = _timed(run_megafleet, mega_cfg)

    def row(devices, days, seconds):
        return {
            "devices": devices,
            "days": days,
            "wall_s": round(seconds, 4),
            "device_days_per_s": round(devices * days / seconds),
        }

    engines = {
        "fleet": row(fleet_cfg.n_nodes, fleet_cfg.days, fleet_s),
        "megafleet": row(mega_cfg.n_devices, mega_cfg.days, mega_s),
    }
    bench_json(
        "fleet",
        {
            "gate_device_days_per_s": MEGAFLEET_GATE,
            "engines": engines,
            "megafleet_crashes": mega_res.total_crashes,
            "megafleet_mean_final_accuracy": round(mega_res.mean_final_accuracy, 6),
        },
    )

    # Sanity: both engines simulated a live fleet.
    assert fleet_res.mean_final_accuracy > 0.5
    assert mega_res.mean_final_accuracy > 0.5
    # The native engine must clear the million-device gate.
    assert engines["megafleet"]["device_days_per_s"] >= MEGAFLEET_GATE, (
        f"megafleet throughput {engines['megafleet']['device_days_per_s']:,} "
        f"device-days/s below the {MEGAFLEET_GATE:,} gate"
    )
