"""The one-off edge analyses as registered lab specs.

``profile``, ``pareto``, ``disk-revolve``, ``campaign``, ``fleet``,
``resilience``, ``energy``, ``batch-tradeoff`` and ``viewpoint`` each
compute a strict-JSON payload and render it as the text ``repro <name>``
prints.  None declares a default unit, so ``repro all`` never runs them;
``repro run <name> --outdir D`` caches them like any other spec and
``--format json`` emits the payload.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Callable

from ..edge import DEVICE_CATALOG, ODROID_XU4, TrainingWorkload
from ..edge.storage import storage_profiles
from ..errors import ConfigError
from ..lab import Param, experiment
from ..units import GB, MB
from ..zoo import RESNET_DEPTHS, build_resnet
from .report import render_json, table_from_payload, table_to_payload

def _command(name: str, title: str, params: tuple[Param, ...], ascii_fn: Callable) -> Callable:
    return experiment(
        name, title, params=params, renderers={"ascii": ascii_fn, "json": render_json}
    )


def _finite_bytes(params, name: str, unit: int) -> int:
    """``params[name] * unit`` as a byte count; ±inf fails typed before ``int``.

    Signs are left to the callee's pinned message.
    """
    if not math.isfinite(params[name]):
        raise ConfigError(f"{name} must be finite, got {params[name]}")
    return int(params[name] * unit)


@_command(
    "profile",
    "per-layer memory profile of a zoo model",
    (
        Param("model", int, default=50, choices=RESNET_DEPTHS),
        Param("top", int, default=8, min=1),
    ),
    lambda doc: doc["report"],
)
def _profile(params, inputs):
    from ..memory import memory_profile

    prof = memory_profile(build_resnet(params["model"]))
    return {
        **params,
        "act_bytes_per_sample": prof.total_act_bytes,
        "param_bytes": prof.total_param_bytes,
        "report": prof.render(params["top"]),
    }


def _pareto_ascii(doc: dict) -> str:
    l, pts = doc["length"], doc["points"]
    lines = [
        f"Memory/recompute Pareto frontier, chain length {l}",
        f"{'slots':>6}{'extra fwd':>11}{'repeats':>9}{'rho(bwd=fwd)':>14}",
    ]
    shown = pts if len(pts) <= 30 else pts[:15] + pts[-15:]
    for p in shown:
        lines.append(
            f"{p['slots']:>6}{p['extra_forwards']:>11}{p['repetition']:>9}{p['rho']:>14.3f}"
        )
    if len(pts) > 30:
        lines.insert(17, f"{'...':>6} ({len(pts) - 30} points elided)")
    return "\n".join(lines)


@_command(
    "pareto",
    "memory/recompute Pareto frontier of a chain",
    (Param("length", int, default=152),),
    _pareto_ascii,
)
def _pareto(params, inputs):
    from ..checkpointing import pareto_frontier

    l = params["length"]
    return {
        "length": l,
        "points": [{**asdict(p), "rho": p.rho(l)} for p in pareto_frontier(l)],
    }


def _disk_revolve_ascii(doc: dict) -> str:
    return (
        f"Two-level checkpointing: l={doc['length']}, memory slots={doc['mem_slots']}, "
        f"disk I/O cost={doc['disk_cost']}\n"
        f"  memory-only Revolve cost : {doc['memory_only_cost']}\n"
        f"  two-level optimal cost   : {doc['two_level_cost']:.1f}\n"
        f"  disk checkpoints         : {doc['disk_writes']} "
        f"(peak {doc['disk_peak_slots']} resident)\n"
        f"  peak memory slots        : {doc['memory_peak_slots']}\n"
        f"  pure forward steps       : {doc['forward_steps']}"
    )


@_command(
    "disk-revolve",
    "two-level (memory+SD) checkpointing plan",
    (
        Param("length", int, default=152),
        Param("mem_slots", int, default=3),
        Param("disk_cost", float, default=1.0, help="I/O cost in forward units (inf: never page)"),
    ),
    _disk_revolve_ascii,
)
def _disk_revolve(params, inputs):
    from ..checkpointing import ChainSpec, disk_revolve_cost, disk_revolve_schedule, opt_forwards
    from ..engine import TieredBackend, execute

    l, c, d = params["length"], params["mem_slots"], params["disk_cost"]
    run = execute(disk_revolve_schedule(l, c, d, d), TieredBackend(ChainSpec.homogeneous(l)))
    disk = run.tier("disk")
    return {
        **params,
        "memory_only_cost": opt_forwards(l, c),
        "two_level_cost": disk_revolve_cost(l, c, d, d),
        "disk_writes": disk.writes,
        "disk_peak_slots": disk.peak_slots,
        "memory_peak_slots": run.tier("memory").peak_slots,
        "forward_steps": run.forward_steps,
    }


def _campaign_ascii(doc: dict) -> str:
    lines = [
        f"In-situ campaign on {doc['device']}: {doc['crossings']:.0f} crossings/day, "
        f"target {doc['target']:.2f}",
        f"{'day':>4}{'harvested':>11}{'accuracy':>10}{'train h':>9}",
    ]
    for d in doc["days"]:
        lines.append(
            f"{d['day']:>4}{d['harvested_total']:>11}{d['accuracy']:>10.3f}"
            f"{d['train_wall_s'] / 3600:>9.1f}"
        )
    day = doc["target_day"]
    verdict = "target NOT reached" if day is None else f"target reached on day {day}"
    lines.append(f"{verdict}; storage used {doc['storage_bytes'] / MB:.1f} MB")
    return "\n".join(lines)


@_command(
    "campaign",
    "in-situ adaptation campaign simulation",
    (
        Param("crossings", float, default=60.0, min=0),
        Param("target", float, default=0.9),
        Param("seed", int, default=0),
    ),
    _campaign_ascii,
)
def _campaign(params, inputs):
    from ..edge import CampaignConfig, run_campaign

    workload = TrainingWorkload(
        model="student",
        chain_length=18,
        slot_act_bytes_per_sample=2 * MB,
        fixed_bytes=180 * MB,
        flops_per_sample=3.6e9,
        n_images=1,
        batch_size=8,
    )
    cfg = CampaignConfig(
        workload=workload,
        target_accuracy=params["target"],
        crossings_per_day=params["crossings"],
        seed=params["seed"],
    )
    res = run_campaign(cfg, ODROID_XU4)
    return {
        **params,
        "device": ODROID_XU4.name,
        "days": [asdict(d) for d in res.days],
        "target_day": res.target_day if res.reached_target else None,
        "storage_bytes": res.storage_bytes,
    }


def _fleet_ascii(doc: dict) -> str:
    iso, fed = doc["isolated"], doc["federated"]
    out = (
        f"Fleet of {doc['nodes']} nodes over {doc['days']} days "
        f"(transfer value {doc['transfer']}, seed {doc['seed']}):\n"
        f"  isolated : mean {iso['mean']:.3f}  worst {iso['worst']:.3f}  radio 0.0 GB\n"
        f"  federated: mean {fed['mean']:.3f}  worst {fed['worst']:.3f}  "
        f"radio {fed['radio_bytes'] / GB:.1f} GB (period {doc['period']} days)"
    )
    if doc["crash_rate"] > 0:
        out += (
            f"\n  faults   : rate {doc['crash_rate']:.3f}/node/day -> "
            f"{iso['crashes']} crashes, {iso['lost_samples']:.0f} samples lost, "
            f"{iso['downtime_days']} node-days down (isolated run)"
        )
    return out


@_command(
    "fleet",
    "multi-node federation cost/benefit",
    (
        Param("nodes", int, default=10),
        Param("days", int, default=30),
        Param("period", int, default=5, help="federation period (0=isolated)"),
        Param("transfer", float, default=0.15),
        Param("crash_rate", float, default=0.0, help="per-node daily crash probability"),
        Param("seed", int, default=0),
    ),
    _fleet_ascii,
)
def _fleet(params, inputs):
    from ..edge import FleetConfig, simulate_fleet

    common = dict(
        n_nodes=params["nodes"],
        days=params["days"],
        crash_rate_per_day=params["crash_rate"],
        seed=params["seed"],
    )
    iso = simulate_fleet(FleetConfig(federation_period=0, **common))
    fed = simulate_fleet(
        FleetConfig(
            federation_period=params["period"], transfer_value=params["transfer"], **common
        )
    )
    return {**params, "isolated": _fleet_totals(iso), "federated": _fleet_totals(fed)}


def _fleet_totals(r) -> dict:
    return {
        "mean": r.mean_final_accuracy,
        "worst": r.worst_final_accuracy,
        "radio_bytes": r.radio_bytes_total,
        "crashes": r.total_crashes,
        "lost_samples": r.total_lost_samples,
        "downtime_days": int(sum(r.downtime_days)),
    }


def _resilience_ascii(doc: dict) -> str:
    lines = [
        f"Resilience planner ({doc['storage']}, seed {doc['seed']}):",
        f"  snapshot payload   : {doc['snapshot_mb']:.0f} MB -> "
        f"delta = {doc['delta_s']:.2f} s per durable write",
        f"  Young/Daly optimum : tau* = sqrt(2*delta*MTBF) = {doc['tau_star_s']:.1f} s "
        f"at MTBF {doc['mtbf_hours']:g} h",
        "",
        doc["sweep"],
        "",
        f"Overhead vs fault rate ({doc['work_hours']:g} h of work, "
        f"snapshotting at each rate's tau*):",
        f"{'MTBF h':>8}{'tau* s':>9}{'predicted':>11}{'measured':>10}",
    ]
    for row in doc["overhead"]:
        lines.append(
            f"{row['mtbf_seconds'] / 3600:>8.2f}{row['tau_star_seconds']:>9.1f}"
            f"{row['predicted_overhead']:>10.1%}{row['measured_overhead']:>10.1%}"
        )
    return "\n".join(lines)


@_command(
    "resilience",
    "fault tolerance: expected makespan + Young/Daly snapshot-interval sweep",
    (
        Param("mtbf_hours", float, default=12.0, help="mean time between failures"),
        Param("work_hours", float, default=24.0, help="fault-free compute to finish"),
        Param("snapshot_mb", float, default=50.0, help="durable snapshot payload size"),
        Param("storage", str, default="sd-card", choices=tuple(storage_profiles())),
        Param("restart_s", float, default=60.0, help="reboot cost per crash"),
        Param("trials", int, default=40, help="Monte-Carlo trials per interval"),
        Param("seed", int, default=0),
    ),
    _resilience_ascii,
)
def _resilience(params, inputs):
    from ..resilience import overhead_vs_fault_rate, sweep_intervals, young_daly_interval

    storage = storage_profiles()[params["storage"]]
    delta = storage.write_seconds(_finite_bytes(params, "snapshot_mb", MB))
    mtbf = params["mtbf_hours"] * 3600.0
    work = params["work_hours"] * 3600.0
    restart, trials, seed = params["restart_s"], params["trials"], params["seed"]
    sweep = sweep_intervals(work, delta, restart, mtbf, trials=trials, seed=seed)
    rows = overhead_vs_fault_rate(
        work, delta, restart, (mtbf / 4, mtbf, 4 * mtbf), trials=trials, seed=seed
    )
    return {
        **params,
        "delta_s": delta,
        "tau_star_s": young_daly_interval(mtbf, delta),
        "sweep": sweep.render(),
        "overhead": [asdict(r) for r in rows],
    }


def _energy_ascii(doc: dict) -> str:
    kb = doc["image_kb"]
    return (
        f"Energy model: {doc['radio_j_per_byte'] * 1e6:.1f} uJ/B radio, "
        f"{doc['compute_j_per_flop'] * 1e9:.2f} nJ/FLOP compute\n"
        f"Training ({kb:.0f} kB images, {doc['gflops']:.1f} GFLOP fwd/sample):\n"
        f"  local-vs-ship breakeven: {doc['breakeven_rho1']:.4f} epochs (rho=1), "
        f"{doc['breakeven_rho1_5']:.4f} (rho=1.5)\n"
        f"Streaming inference (1 fps, raw-ish {20 * kb:.0f} kB frames, 1 day):\n"
        f"  ship {doc['ship_joules'] / 1000:.1f} kJ vs local "
        f"{doc['local_joules'] / 1000:.1f} kJ -> "
        f"{'local' if doc['local_wins'] else 'ship'} wins"
    )


@_command(
    "energy",
    "ship-vs-local energy breakevens",
    (
        Param("image_kb", float, default=10.0),
        Param("gflops", float, default=3.6, help="per-sample forward GFLOPs"),
    ),
    _energy_ascii,
)
def _energy(params, inputs):
    from ..edge import EnergyModel, breakeven_epochs, streaming_comparison

    model = EnergyModel()
    image_bytes = _finite_bytes(params, "image_kb", 1024)
    flops = params["gflops"] * 1e9
    stream = streaming_comparison(1.0, 20 * image_bytes, flops, model=model)
    return {
        **params,
        "radio_j_per_byte": model.radio_j_per_byte,
        "compute_j_per_flop": model.compute_j_per_flop,
        "breakeven_rho1": breakeven_epochs(image_bytes, flops, model=model, rho=1.0),
        "breakeven_rho1_5": breakeven_epochs(image_bytes, flops, model=model, rho=1.5),
        "ship_joules": stream.ship_joules,
        "local_joules": stream.local_joules,
        "local_wins": stream.local_wins,
    }


@_command(
    "batch-tradeoff",
    "batch-size vs epoch-time sweep",
    (
        Param("model", int, default=50, choices=RESNET_DEPTHS),
        Param("device", str, default=ODROID_XU4.name, choices=tuple(sorted(DEVICE_CATALOG))),
        Param("images", int, default=10_000, min=1),
    ),
    lambda doc: table_from_payload(doc["table"]).render(),
)
def _batch_tradeoff(params, inputs):
    from .ablation import batch_tradeoff_table
    from .tables import memory_models

    depth = params["model"]
    model = memory_models()[depth]
    workload = TrainingWorkload(
        model=model.name,
        chain_length=depth,
        slot_act_bytes_per_sample=model.account_ref.act_bytes_per_sample // depth,
        fixed_bytes=model.fixed_bytes,
        flops_per_sample=float(build_resnet(depth).total_flops_per_sample()),
        n_images=params["images"],
    )
    table = batch_tradeoff_table(workload, DEVICE_CATALOG[params["device"]])
    return {**params, "table": table_to_payload(table)}


def _viewpoint_ascii(doc: dict) -> str:
    return (
        f"{doc['summary']}\n"
        f"skew-angle recovery: {doc['skew_recovery']:+.3f}\n"
        f"harvested-set storage at 10 kB/image: {doc['storage_bytes'] / MB:.1f} MB"
    )


@_command(
    "viewpoint",
    "Section III student-teacher pipeline",
    (
        Param("subjects", int, default=120, min=1),
        Param("epochs", int, default=30),
        Param("seed", int, default=0),
    ),
    _viewpoint_ascii,
)
def _viewpoint(params, inputs):
    from ..studentteacher import PipelineConfig, StudentConfig, run_pipeline

    res = run_pipeline(
        PipelineConfig(
            n_subjects=params["subjects"],
            camera_skew_deg=60.0,
            angle_bins=(15.0, 30.0, 45.0, 60.0),
            student=StudentConfig(epochs=params["epochs"]),
            seed=params["seed"],
        )
    )
    return {
        **params,
        "summary": res.summary(),
        "skew_recovery": res.skew_recovery,
        "storage_bytes": res.storage_bytes_needed,
    }
