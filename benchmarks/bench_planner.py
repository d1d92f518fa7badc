"""Joint remat+paging planner: plan-time scaling and dominance gates.

Two things are pinned here and gated in CI via ``BENCH_planner.json``:

* **plan time** — the joint DP must stay interactive for block chains
  (`l ≤ 60`), both on uniform chains (closed-form Revolve inner) and on
  heterogeneous chains (the `SlotSegmentDP` inner, the `O(l³·c)` path);
  the segment-DP core itself is timed directly too, as the `hetero` and
  `budget` families run it (`hetero_dp_l60`, `budget_dp_l60`);
* **dominance margins** — executing the planned schedules on a tiered
  backend, `joint_time`'s wall seconds and `joint_energy`'s joules must
  weakly dominate both pure families (revolve, disk_revolve) on the SD
  card *and* eMMC profiles, with a strict improvement somewhere.  The
  margins are emitted so CI runs can be compared over time.
"""

from __future__ import annotations

import statistics
import timeit

from repro.checkpointing import (
    ChainSpec,
    TimeObjective,
    UnitCostObjective,
    disk_revolve_cost,
    joint_cost,
    joint_plan,
    measure_frontier,
    opt_forwards_budget,
    opt_forwards_hetero,
)
from repro.edge.storage import EMMC, SD_CARD
from repro.experiments.figure1 import JOINT_FAMILIES, _joint_spec

C = 3
UNIFORM_L = (20, 40, 60)
HETERO_L = (20, 40, 60)
#: block-chain depths for the dominance sweep (all l <= 60)
DEPTHS = (18, 34, 50)
REPEATS = 5
#: plan-time budget per chain, seconds — far above today's numbers, the
#: gate exists to catch accidental complexity regressions.
MAX_PLAN_SECONDS = 5.0


def _hetero_spec(l: int) -> ChainSpec:
    """Deterministic non-uniform chain (forces the segment-DP inner)."""
    acts = tuple(1000 + 137 * (i % 7) for i in range(l + 1))
    fwd = tuple(float(1 + (i * 13) % 11) for i in range(l))
    return ChainSpec(name=f"hetero{l}", act_bytes=acts, fwd_cost=fwd, bwd_cost=fwd)


def _median_seconds(fn) -> float:
    return statistics.median(timeit.repeat(fn, repeat=REPEATS, number=1))


def _time_plan(spec: ChainSpec, objective) -> float:
    return _median_seconds(lambda: joint_plan(spec, C, objective))


def test_joint_plan_time_and_dominance(outdir, bench_json):
    plan_seconds: dict[str, float] = {}
    for l in UNIFORM_L:
        spec = ChainSpec.homogeneous(l)
        plan_seconds[f"uniform_l{l}"] = _time_plan(
            spec, UnitCostObjective(spec, 1.0, 1.0)
        )
    for l in HETERO_L:
        spec = _hetero_spec(l)
        plan_seconds[f"hetero_l{l}"] = _time_plan(
            spec, TimeObjective(spec, disk=SD_CARD, unit_seconds=1e-9)
        )
    # The segment-DP core on its own, cold each call: slot budget C, and
    # a byte budget of C of the largest activations.
    spec = _hetero_spec(max(HETERO_L))
    plan_seconds[f"hetero_dp_l{spec.length}"] = _median_seconds(
        lambda: opt_forwards_hetero(spec, C)
    )
    plan_seconds[f"budget_dp_l{spec.length}"] = _median_seconds(
        lambda: opt_forwards_budget(spec, C * max(spec.act_bytes))
    )
    for key, secs in plan_seconds.items():
        assert secs < MAX_PLAN_SECONDS, f"joint plan {key} took {secs:.2f}s"

    # At disk_revolve's own unit prices the joint optimum must coincide
    # with it exactly — dominance below is then structural, not luck.
    for l in UNIFORM_L:
        spec = ChainSpec.homogeneous(l)
        assert (
            abs(joint_cost(spec, C, UnitCostObjective(spec, 1.0, 1.0)) - disk_revolve_cost(l, C))
            < 1e-9
        )

    margins = []
    strict = 0
    for storage, profile in (("sd-card", SD_CARD), ("emmc", EMMC)):
        for depth in DEPTHS:
            spec = _joint_spec(depth, batch=8, image=224)
            pts = {
                p.strategy: p
                for p in measure_frontier(
                    spec, C, JOINT_FAMILIES, profile, unit_seconds=1.0 / 30e9
                )
            }
            pure_wall = min(pts["revolve"].wall_seconds, pts["disk_revolve"].wall_seconds)
            pure_energy = min(
                pts["revolve"].energy_joules, pts["disk_revolve"].energy_joules
            )
            wall_margin = pure_wall - pts["joint_time"].wall_seconds
            energy_margin = pure_energy - pts["joint_energy"].energy_joules
            assert wall_margin >= -1e-9, (storage, depth)
            assert energy_margin >= -1e-9, (storage, depth)
            if wall_margin > 1e-6 or energy_margin > 1e-6:
                strict += 1
            margins.append(
                {
                    "depth": depth,
                    "storage": storage,
                    "slots": C,
                    "wall_margin_s": wall_margin,
                    "energy_margin_j": energy_margin,
                    "joint_wall_s": pts["joint_time"].wall_seconds,
                    "pure_wall_s": pure_wall,
                }
            )
    assert strict >= 1, "joint never strictly beat a pure family"

    lines = ["depth,storage,wall_margin_s,energy_margin_j"]
    for m in margins:
        lines.append(
            f"{m['depth']},{m['storage']},{m['wall_margin_s']:.4f},{m['energy_margin_j']:.4f}"
        )
    (outdir / "planner_margins.csv").write_text("\n".join(lines) + "\n")

    bench_json(
        "planner",
        {
            "slots": C,
            "plan_seconds": plan_seconds,
            "max_plan_seconds": MAX_PLAN_SECONDS,
            "margins": margins,
            "strict_improvements": strict,
        },
    )
