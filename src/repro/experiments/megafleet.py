"""The megafleet sweep as a registered, content-addressed experiment.

Registers the ``megafleet`` spec: a heterogeneous-fleet campaign whose
payload is the engine's execution-independent aggregate report
(:meth:`~repro.megafleet.engine.MegaFleetResult.to_payload`).  Because
the engine is deterministic in the config alone — jobs and shard size
cannot change a byte — the payload is safely cacheable under the
lab's ``(spec, params, code)`` key; execution knobs deliberately do
not appear among the params.

``repro megafleet`` adds ``--jobs`` / ``--shard-devices`` to the
generated flags and renders through this module's renderers, so the
one-off and the cached path produce identical text.
"""

from __future__ import annotations

from ..lab import Param, experiment
from ..megafleet import MegaFleetResult, preset_config, run_megafleet
from ..units import GB
from .report import render_json

__all__ = ["megafleet_ascii", "megafleet_csv", "run_megafleet_payload"]


def run_megafleet_payload(
    params: dict, *, jobs: int = 1, shard_devices: int | None = None
) -> dict:
    """Build the config from spec params, run, and return the payload."""
    cfg = preset_config(
        params["preset"],
        params["devices"],
        days=params["days"],
        federation_period=params["federation_period"],
        report_every=params["report_every"],
        seed=params["seed"],
    )
    kwargs: dict = {"jobs": jobs}
    if shard_devices is not None:
        kwargs["shard_devices"] = shard_devices
    result: MegaFleetResult = run_megafleet(cfg, **kwargs)
    return {"params": dict(params), **result.to_payload()}


def megafleet_ascii(doc: dict) -> str:
    """Cohort table + trajectory + damage totals, terminal-width."""
    p = doc["params"]
    lines = [
        f"Megafleet: {doc['n_devices']:,} devices over {doc['days']} days "
        f"(preset {p['preset']}, federation period {p['federation_period']}, "
        f"seed {p['seed']})",
        "",
        f"{'cohort':<14}{'devices':>9}{'model':>7}{'storage':>9}"
        f"{'crashes':>9}{'down d':>8}{'harvest':>10}{'final acc':>11}{'snap s':>8}",
    ]
    for c in doc["cohorts"]:
        lines.append(
            f"{c['name']:<14}{c['devices']:>9,}{'r' + str(c['model_depth']):>7}"
            f"{c['storage']:>9}{c['crashes']:>9,}{c['downtime_days']:>8,}"
            f"{c['mean_harvest']:>10.0f}{c['mean_final_accuracy']:>11.4f}"
            f"{c['snapshot_write_seconds']:>8.1f}"
        )
    lines += ["", f"{'day':>5}{'mean acc':>10}{'min acc':>9}{'up':>10}{'radio GB':>11}"]
    traj = doc["trajectory"]
    shown = traj if len(traj) <= 12 else traj[:6] + traj[-6:]
    for i, d in enumerate(shown):
        if len(traj) > 12 and i == 6:
            lines.append(f"{'...':>5} ({len(traj) - 12} samples elided)")
        lines.append(
            f"{d['day']:>5}{d['mean_accuracy']:>10.4f}{d['min_accuracy']:>9.4f}"
            f"{d['devices_up']:>10,}{d['radio_bytes_total'] / GB:>11.1f}"
        )
    t = doc["totals"]
    lines += [
        "",
        f"totals: {t['crashes']:,} crashes, {t['lost_samples']:,.0f} samples lost, "
        f"{t['downtime_days']:,} device-days down, "
        f"{t['radio_bytes'] / GB:,.1f} GB radio",
    ]
    return "\n".join(lines)


def megafleet_csv(doc: dict) -> str:
    """Trajectory as CSV (one row per report day)."""
    rows = ["day,mean_accuracy,min_accuracy,devices_up,radio_bytes_total"]
    for d in doc["trajectory"]:
        rows.append(
            f"{d['day']},{d['mean_accuracy']!r},{d['min_accuracy']!r},"
            f"{d['devices_up']},{d['radio_bytes_total']}"
        )
    return "\n".join(rows) + "\n"


@experiment(
    "megafleet",
    "Heterogeneous mega-fleet campaign (event-driven, sharded)",
    params=(
        Param("preset", str, default="mixed", choices=("mixed", "uniform"),
              help="fleet composition"),
        Param("devices", int, default=20_000, help="total device count"),
        Param("days", int, default=30, help="campaign horizon in days"),
        Param("federation_period", int, default=5,
              help="days between federation rounds (0 = isolated)"),
        Param("report_every", int, default=5,
              help="trajectory sampling stride (0 = final day only)"),
        Param("seed", int, default=0),
    ),
    renderers={
        "ascii": megafleet_ascii,
        "csv": megafleet_csv,
        "json": render_json,
    },
)
def _megafleet_spec(params, inputs):
    return run_megafleet_payload(params)
