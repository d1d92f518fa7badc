"""Figure 1 reproduction: peak memory vs recompute factor ρ.

For each ``LinearResNet_x`` (the homogenized chain of depth x with the
same weight and total-activation memory as ResNet_x) and each panel
(batch, image) ∈ {(1,224), (8,224), (1,500), (8,500)}, we sweep ρ and at
each ρ binary-search the minimal Revolve slot count whose recompute
overhead fits the ``2ρl`` budget, then convert slots to bytes:
``M(ρ) = M_fixed + (c+1)·k·M_act(img)/l``.

Two coefficient sources, as for the tables: ``"ours"`` (first-principles
graphs, homogenized) and ``"paper"`` (Table-I-fitted coefficients — at
ρ = 1 these reproduce the published store-all footprints exactly).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..checkpointing import (
    ChainSpec,
    FrontierPoint,
    measure_frontier,
    memory_for_slots,
    slots_for_rhos,
)
from ..edge.device import ODROID_XU4
from ..edge.storage import EMMC, SD_CARD, compression_models
from ..graph import homogenize
from ..lab import Param, UnitDef, experiment
from ..memory import calibrated_models
from ..units import GB, MB
from ..zoo import RESNET_DEPTHS, build_resnet
from .report import ascii_plot, render_json
from .tables import memory_models

__all__ = [
    "PANELS",
    "Figure1Series",
    "figure1_panel",
    "figure1_ascii",
    "default_rhos",
    "JOINT_STORAGE",
    "JOINT_FAMILIES",
    "COMPRESSED_FAMILIES",
    "figure1_joint_panel",
    "figure1_compressed_panel",
]

#: The paper's four panels: (label, batch size, image size).
PANELS: dict[str, tuple[int, int]] = {
    "a": (1, 224),
    "b": (8, 224),
    "c": (1, 500),
    "d": (8, 500),
}


def default_rhos(n: int = 41, lo: float = 1.0, hi: float = 3.0) -> tuple[float, ...]:
    """The ρ grid used for the curves (paper plots roughly ρ ∈ [1, 3])."""
    if n < 2:
        raise ValueError("need at least 2 grid points")
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


@dataclass(frozen=True)
class Figure1Series:
    """One model's memory-vs-ρ curve in one panel."""

    depth: int
    batch_size: int
    image_size: int
    source: str
    points: tuple[tuple[float, float], ...]  # (rho, bytes)

    @property
    def name(self) -> str:
        return f"LinearResNet{self.depth}"

    def memory_at(self, rho: float) -> float:
        """Bytes at the grid point closest to ``rho``."""
        return min(self.points, key=lambda p: abs(p[0] - rho))[1]

    def min_rho_under(self, budget_bytes: float) -> float | None:
        """Smallest swept ρ whose footprint fits ``budget_bytes``."""
        fitting = [r for r, b in self.points if b <= budget_bytes]
        return min(fitting) if fitting else None


def _coefficients(depth: int, image: int, source: str) -> tuple[float, float]:
    """(fixed_bytes, per-sample activation bytes at ``image``)."""
    if source == "paper":
        cal = calibrated_models()[depth]
        return cal.fixed_bytes, cal.act_bytes(image)
    model = memory_models()[depth]
    return float(model.fixed_bytes), float(model.act_bytes(image))


def figure1_panel(
    panel: str,
    source: str = "paper",
    rhos: tuple[float, ...] | None = None,
    depths: tuple[int, ...] = RESNET_DEPTHS,
) -> list[Figure1Series]:
    """All model curves for one panel ('a'..'d')."""
    if panel not in PANELS:
        raise KeyError(f"panel must be one of {sorted(PANELS)}, got {panel!r}")
    batch, image = PANELS[panel]
    rhos = rhos or default_rhos()
    out = []
    for depth in depths:
        fixed, act = _coefficients(depth, image, source)
        l = depth  # LinearResNet_x depth == nominal layer count
        slot_bytes = batch * act / l
        # One batched inversion answers the whole ρ grid for this depth
        # (a single sorted search over the extra-forwards table instead
        # of one binary search per ρ probe).
        slots = slots_for_rhos(l, tuple(rhos))
        out.append(
            Figure1Series(
                depth=depth,
                batch_size=batch,
                image_size=image,
                source=source,
                points=tuple(
                    (rho, memory_for_slots(c, fixed, slot_bytes))
                    for rho, c in zip(rhos, slots)
                ),
            )
        )
    return out


def _ascii_from_points(
    panel: str, source: str, named_points: list[tuple[str, list[tuple[float, float]]]]
) -> str:
    """Shared plot rendering for live series and cached payloads."""
    batch, image = PANELS[panel]
    data = {name: [(r, b / MB) for r, b in pts] for name, pts in named_points}
    return ascii_plot(
        data,
        title=(
            f"Figure 1{panel}: peak memory vs recompute factor "
            f"(batch {batch}, image {image}, {source} coefficients)"
        ),
        x_label="recompute factor rho",
        y_label="peak memory (MB)",
        hline=2 * GB / MB,
        hline_label="2GB budget",
    )


def figure1_ascii(panel: str, source: str = "paper", log_mb: bool = False) -> str:
    """Render one panel as an ASCII plot with the 2 GB budget line."""
    series = figure1_panel(panel, source)
    return _ascii_from_points(panel, source, [(s.name, list(s.points)) for s in series])


# -- repro.lab registration ------------------------------------------------


def _figure1_ascii_renderer(doc: dict) -> str:
    return _ascii_from_points(
        doc["panel"],
        doc["source"],
        [(s["name"], [tuple(p) for p in s["points"]]) for s in doc["series"]],
    )


def _figure1_csv_renderer(doc: dict) -> str:
    lines = ["model,rho,memory_mb"]
    for s in doc["series"]:
        for rho, b in s["points"]:
            lines.append(f"{s['name']},{rho:.4f},{b / MB:.2f}")
    return "\n".join(lines) + "\n"


@experiment(
    "figure1",
    "Figure 1 memory-vs-rho curves",
    params=(
        Param("panel", str, default="b", choices=tuple(sorted(PANELS))),
        Param("source", str, default="paper", choices=("ours", "paper")),
    ),
    renderers={
        "ascii": _figure1_ascii_renderer,
        "csv": _figure1_csv_renderer,
        "json": render_json,
    },
    default_units=tuple(
        UnitDef(
            {"panel": p, "source": "paper"},
            ((f"figure1_{p}.txt", "ascii"), (f"figure1_{p}.csv", "csv")),
        )
        for p in sorted(PANELS)
    ),
)
def _figure1_spec(params, inputs):
    series = figure1_panel(params["panel"], params["source"])
    return {
        "panel": params["panel"],
        "source": params["source"],
        "series": [
            {
                "name": s.name,
                "depth": s.depth,
                "batch_size": s.batch_size,
                "image_size": s.image_size,
                "points": [[r, b] for r, b in s.points],
            }
            for s in series
        ],
        "records": [
            {"model": s.name, "rho": r, "memory_mb": b / MB}
            for s in series
            for r, b in s.points
        ],
    }


# -- measured frontiers: joint paging and compression ---------------------

#: Storage profiles the measured frontiers run against, by CLI name.
JOINT_STORAGE = {"sd-card": SD_CARD, "emmc": EMMC}
#: The strategies every joint-frontier row carries, in order.
JOINT_FAMILIES = ("revolve", "disk_revolve", "joint_time", "joint_energy")
#: The strategies every compressed-frontier row carries, in order.
COMPRESSED_FAMILIES = ("revolve", "revolve_zip", "joint_time", "joint_zip")


def _joint_spec(depth: int, batch: int, image: int) -> ChainSpec:
    """Homogenized ResNet chain with batch-scaled sizes and real flops."""
    base = ChainSpec.from_linear_chain(homogenize(build_resnet(depth, image_size=image), depth))
    return ChainSpec(
        name=f"{base.name}xb{batch}",
        act_bytes=tuple(b * batch for b in base.act_bytes),
        fwd_cost=tuple(f * batch for f in base.fwd_cost),
        bwd_cost=tuple(f * batch for f in base.bwd_cost),
    )


def _frontier_rows(
    panel: str, storage: str, slots: int, depths: tuple[int, ...],
    families: tuple[str, ...], codec: str | None = None,
) -> list[tuple[dict, dict[str, FrontierPoint]]]:
    """Execute ``families`` (:func:`~repro.checkpointing.measure_frontier`)
    on one Figure-1 panel, storage profile and codec preset, compute timed
    at the ODROID-XU4 rate.  Returns one ``(row, points by strategy)`` pair
    per depth; the caller adds its own margins to each row.
    """
    if panel not in PANELS:
        raise KeyError(f"panel must be one of {sorted(PANELS)}, got {panel!r}")
    if storage not in JOINT_STORAGE:
        raise KeyError(f"storage must be one of {sorted(JOINT_STORAGE)}, got {storage!r}")
    models = compression_models()
    if codec is not None and codec not in models:
        raise KeyError(f"codec must be one of {sorted(models)}, got {codec!r}")
    batch, image = PANELS[panel]
    out = []
    for depth in depths:
        points = measure_frontier(
            _joint_spec(depth, batch, image), slots, families, JOINT_STORAGE[storage],
            codec=models.get(codec), unit_seconds=1.0 / ODROID_XU4.flops_per_s,
        )
        row = {
            "depth": depth,
            "batch_size": batch,
            "image_size": image,
            "storage": storage,
            **({} if codec is None else {"codec": codec}),
            "slots": slots,
            "strategies": {p.strategy: asdict(p) for p in points},
        }
        out.append((row, {p.strategy: p for p in points}))
    return out


def figure1_joint_panel(
    panel: str,
    storage: str = "sd-card",
    slots: int = 3,
    depths: tuple[int, ...] = RESNET_DEPTHS,
) -> list[dict]:
    """Measured :data:`JOINT_FAMILIES` frontier for one Figure-1 panel on
    one storage tier.  Each row carries the per-strategy measurements plus
    the joint planner's margins over the best pure family — the dominance
    numbers the paper-level claim rests on.
    """
    rows = []
    for row, pts in _frontier_rows(panel, storage, slots, depths, JOINT_FAMILIES):
        pure = (pts["revolve"], pts["disk_revolve"])
        row["wall_margin_s"] = min(p.wall_seconds for p in pure) - pts["joint_time"].wall_seconds
        row["energy_margin_j"] = (
            min(p.energy_joules for p in pure) - pts["joint_energy"].energy_joules
        )
        rows.append(row)
    return rows


def figure1_compressed_panel(
    panel: str,
    storage: str = "sd-card",
    codec: str = "bittrain",
    slots: int = 3,
    depths: tuple[int, ...] = RESNET_DEPTHS,
) -> list[dict]:
    """Measured :data:`COMPRESSED_FAMILIES` frontier (peak bytes, wall
    seconds, gradient fidelity) for one Figure-1 panel.  Each row also
    names which compressed families Pareto-dominate pure revolve (strictly
    fewer peak bytes at equal-or-better wall time), the claim
    :mod:`benchmarks.bench_compression` gates on.
    """
    rows = []
    for row, pts in _frontier_rows(panel, storage, slots, depths, COMPRESSED_FAMILIES, codec):
        base = pts["revolve"]
        zips = (pts["revolve_zip"], pts["joint_zip"])
        best = min(zips, key=lambda p: (p.peak_bytes, p.wall_seconds))
        row["dominating"] = [
            p.strategy
            for p in zips
            if p.peak_bytes < base.peak_bytes and p.wall_seconds <= base.wall_seconds
        ]
        row["peak_margin_bytes"] = base.peak_bytes - best.peak_bytes
        row["wall_margin_s"] = base.wall_seconds - best.wall_seconds
        rows.append(row)
    return rows


def _frontier_table(doc: dict, kind: str, columns: str, point, margin, footer=()) -> str:
    """ASCII layout shared by both frontiers: a title, then one line per
    (depth, strategy) from ``point(row, name, p)`` and one ``margin(row)``
    line per depth."""
    batch, image = PANELS[doc["panel"]]
    codec = f"codec {doc['codec']}, " if "codec" in doc else ""
    head = (
        f"Figure 1{doc['panel']} {kind} frontier: batch {batch}, "
        f"image {image}, {doc['storage']}, {codec}c={doc['slots']}"
    )
    lines = [head, "=" * len(head), columns]
    for row in doc["rows"]:
        lines += [point(row, name, p) for name, p in row["strategies"].items()]
        lines.append(margin(row))
    return "\n".join([*lines, *footer]) + "\n"


def _frontier_csv(doc: dict, header: str, point) -> str:
    """CSV layout shared by both frontiers: one ``point`` line per
    (depth, strategy)."""
    lines = [header]
    for row in doc["rows"]:
        lines += [point(row, name, p) for name, p in row["strategies"].items()]
    return "\n".join(lines) + "\n"


def _frontier_payload(params: dict, keys: tuple[str, ...], rows: list[dict], record) -> dict:
    """Lab payload of one frontier unit: its ``keys`` params, the rows,
    and one flat ``record(row, p)`` per (depth, strategy)."""
    return {
        **{k: params[k] for k in keys},
        "rows": rows,
        "records": [
            {"model": f"LinearResNet{row['depth']}", "strategy": name, **record(row, p)}
            for row in rows
            for name, p in row["strategies"].items()
        ],
    }


def _figure1_joint_ascii(doc: dict) -> str:
    return _frontier_table(
        doc,
        "joint",
        f"{'model':>16} {'strategy':>13} {'extra':>6} {'disk W/R':>9} "
        f"{'xfer s':>8} {'wall s':>9} {'energy J':>9}",
        lambda row, name, p: (
            f"{'LinearResNet' + str(row['depth']):>16} {name:>13} "
            f"{p['extra_forwards']:>6} {p['disk_writes']:>4}/{p['disk_reads']:<4} "
            f"{p['transfer_seconds']:>8.2f} {p['wall_seconds']:>9.2f} "
            f"{p['energy_joules']:>9.2f}"
        ),
        lambda row: (
            f"{'':>16} {'margin':>13} wall {row['wall_margin_s']:+.2f} s, "
            f"energy {row['energy_margin_j']:+.2f} J vs best pure family"
        ),
    )


def _figure1_joint_csv(doc: dict) -> str:
    return _frontier_csv(
        doc,
        "depth,strategy,slots,extra_forwards,disk_writes,disk_reads,transfer_s,wall_s,energy_j",
        lambda row, name, p: (
            f"{row['depth']},{name},{p['slots']},{p['extra_forwards']},"
            f"{p['disk_writes']},{p['disk_reads']},{p['transfer_seconds']:.4f},"
            f"{p['wall_seconds']:.4f},{p['energy_joules']:.4f}"
        ),
    )


@experiment(
    "figure1_joint",
    "Joint remat+paging frontier vs pure revolve / disk-revolve",
    params=(
        Param("panel", str, default="b", choices=tuple(sorted(PANELS))),
        Param("storage", str, default="sd-card", choices=tuple(sorted(JOINT_STORAGE))),
        Param("slots", int, default=3),
    ),
    renderers={"ascii": _figure1_joint_ascii, "csv": _figure1_joint_csv, "json": render_json},
    default_units=tuple(
        UnitDef(
            {"panel": p, "storage": s, "slots": 3},
            (
                (f"figure1_joint_{p}_{s.replace('-', '')}.txt", "ascii"),
                (f"figure1_joint_{p}_{s.replace('-', '')}.csv", "csv"),
            ),
        )
        for p in sorted(PANELS)
        for s in ("sd-card", "emmc")
    ),
)
def _figure1_joint_spec(params, inputs):
    rows = figure1_joint_panel(params["panel"], params["storage"], params["slots"])
    return _frontier_payload(
        params, ("panel", "storage", "slots"), rows,
        lambda row, p: {
            "wall_s": p["wall_seconds"],
            "energy_j": p["energy_joules"],
            "extra_forwards": p["extra_forwards"],
        },
    )


def _figure1_compressed_ascii(doc: dict) -> str:
    return _frontier_table(
        doc,
        "compressed",
        f"{'model':>16} {'strategy':>12} {'slots':>5} {'extra':>6} "
        f"{'peak MB':>8} {'wall s':>9} {'fidelity':>9} {'saved MB':>9}",
        lambda row, name, p: (
            f"{'LinearResNet' + str(row['depth']):>16} {name:>12} "
            f"{p['slots']:>5} {p['extra_forwards']:>6} "
            f"{p['peak_bytes'] / MB:>8.1f} {p['wall_seconds']:>9.2f} "
            f"{p['fidelity_loss']:>9.4g} {p['bytes_saved'] / MB:>9.1f}"
            + (" *" if name in row["dominating"] else "")
        ),
        lambda row: (
            f"{'':>16} {'margin':>12} peak {row['peak_margin_bytes'] / MB:+.1f} MB, "
            f"wall {row['wall_margin_s']:+.2f} s vs pure revolve"
        ),
        footer=("* dominates revolve: fewer peak bytes at equal-or-better wall time",),
    )


def _figure1_compressed_csv(doc: dict) -> str:
    return _frontier_csv(
        doc,
        "depth,strategy,codec,slots,extra_forwards,peak_bytes,peak_memory_bytes,"
        "peak_disk_bytes,bytes_saved,fidelity_loss,transfer_s,wall_s,energy_j,dominates",
        lambda row, name, p: (
            f"{row['depth']},{name},{p['codec']},{p['slots']},"
            f"{p['extra_forwards']},{p['peak_bytes']},{p['peak_memory_bytes']},"
            f"{p['peak_disk_bytes']},{p['bytes_saved']},{p['fidelity_loss']},"
            f"{p['transfer_seconds']:.4f},{p['wall_seconds']:.4f},"
            f"{p['energy_joules']:.4f},{int(name in row['dominating'])}"
        ),
    )


@experiment(
    "figure1_compressed",
    "Compression-aware frontier: peak bytes x wall time x gradient fidelity",
    params=(
        Param("panel", str, default="b", choices=tuple(sorted(PANELS))),
        Param("storage", str, default="sd-card", choices=tuple(sorted(JOINT_STORAGE))),
        Param("codec", str, default="bittrain", choices=("bittrain", "fp16", "lossless")),
        Param("slots", int, default=3),
    ),
    renderers={
        "ascii": _figure1_compressed_ascii, "csv": _figure1_compressed_csv, "json": render_json,
    },
    # Panel b with the BitTrain-like codec, plus the low-precision
    # ablation: same panel, lossy fp16 casting.
    default_units=tuple(
        UnitDef(
            {"panel": "b", "storage": "sd-card", "codec": codec, "slots": 3},
            (
                (f"figure1_compressed_b{suffix}.txt", "ascii"),
                (f"figure1_compressed_b{suffix}.csv", "csv"),
            ),
        )
        for codec, suffix in (("bittrain", ""), ("fp16", "_fp16"))
    ),
)
def _figure1_compressed_spec(params, inputs):
    rows = figure1_compressed_panel(
        params["panel"], params["storage"], params["codec"], params["slots"]
    )
    return _frontier_payload(
        params, ("panel", "storage", "codec", "slots"), rows,
        lambda row, p: {
            "peak_bytes": p["peak_bytes"],
            "wall_s": p["wall_seconds"],
            "fidelity_loss": p["fidelity_loss"],
            "dominates": p["strategy"] in row["dominating"],
        },
    )
