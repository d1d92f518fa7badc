"""Engine dispatch: the vectorized sim path must beat per-action dispatch.

The VM has two ways to run one compiled program on a plain
:class:`~repro.engine.SimBackend`: the vectorized whole-program NumPy
pass, and the per-action loop every other backend takes.  This gate
times both on a deep Revolve schedule, records the cold
(compile-included) cost, and requires the warm vectorized path to be at
least ``MIN_SPEEDUP`` times faster, with bit-identical ``RunStats``.

The per-action path's own overhead on live tensors is guarded end to
end by the dispatch-bound ``train-mlp-revolve`` workload of
``benchmarks/e2e`` (compared with the parent commit under its declared
bound), and its exact byte and step accounting is pinned in
``tests/test_autodiff_executor.py``.
"""

from __future__ import annotations

from repro.checkpointing import ChainSpec, revolve_schedule
from repro.engine import SimBackend, compile_schedule, execute

from paired import paired_ratio

REPEATS = 15
NUMBER = 3

# Vectorized sim-path gate: with a warm CompiledProgram (the common case —
# every schedule memoizes its program) the whole-program NumPy pass must
# beat per-action dispatch of the same program by at least MIN_SPEEDUP;
# 10x is the target.
SIM_DEPTH = 256
SIM_SLOTS = 8
MIN_SPEEDUP = 5.0
TARGET_SPEEDUP = 10.0


class PerActionSim(SimBackend):
    """A SimBackend subclass: the VM dispatches it action by action."""


def test_compiled_sim_speedup(outdir, bench_json):
    sch = revolve_schedule(SIM_DEPTH, SIM_SLOTS)
    spec = ChainSpec.homogeneous(SIM_DEPTH)
    program = sch.program

    # Identical stats first — the vectorized path is only a speedup if it
    # is also bit-identical to per-action dispatch.
    assert execute(sch, SimBackend(spec)) == execute(sch, PerActionSim(spec))

    ratio_warm, t_per_action, t_warm = paired_ratio(
        lambda: execute(sch, PerActionSim(spec), compiled=program),
        lambda: execute(sch, SimBackend(spec), compiled=program),
        repeats=REPEATS,
        number=NUMBER,
    )
    ratio_cold, _, t_cold = paired_ratio(
        lambda: execute(sch, PerActionSim(spec), compiled=program),
        lambda: execute(sch, SimBackend(spec), compiled=compile_schedule(sch)),
        repeats=REPEATS,
        number=NUMBER,
    )
    speedup_warm = 1.0 / ratio_warm
    speedup_cold = 1.0 / ratio_cold

    payload = {
        "workload": {
            "strategy": "revolve",
            "length": SIM_DEPTH,
            "slots": SIM_SLOTS,
            "actions": len(sch.actions),
        },
        "per_action_ms": t_per_action * 1e3,
        "compiled_warm_ms": t_warm * 1e3,
        "compiled_cold_ms": t_cold * 1e3,
        "speedup_warm": speedup_warm,
        "speedup_cold": speedup_cold,
        "gate": MIN_SPEEDUP,
        "target": TARGET_SPEEDUP,
        "repeats": REPEATS,
        "number": NUMBER,
    }
    bench_json("engine", payload)

    report = (
        f"sim execute, revolve l={SIM_DEPTH} c={SIM_SLOTS} "
        f"({len(sch.actions)} actions)\n"
        f"per-action dispatch: {t_per_action * 1e3:.3f} ms\n"
        f"vectorized (warm): {t_warm * 1e3:.3f} ms  ({speedup_warm:.1f}x)\n"
        f"vectorized (cold, incl. compile): {t_cold * 1e3:.3f} ms  "
        f"({speedup_cold:.1f}x)\n"
        f"gate {MIN_SPEEDUP:.0f}x, target {TARGET_SPEEDUP:.0f}x\n"
    )
    print(report)

    assert speedup_warm >= MIN_SPEEDUP, (
        f"vectorized sim path only {speedup_warm:.1f}x over per-action "
        f"(gate {MIN_SPEEDUP:.0f}x)"
    )
