"""Engine overhead: VM-based run_schedule must cost ≤1.05x the old executor.

The refactor moved ``autodiff.run_schedule`` from its own action loop
onto the shared schedule VM (``repro.engine``): one generic dispatch
loop over the schedule's compiled program calling
:class:`~repro.engine.tensor.TensorBackend` methods, with step
observation behind an ``on_step is None`` fast path.  The price of that
indirection is bounded here: the *pre-refactor* instrumented executor
loop is frozen verbatim below (commit e934dff) as the reference, both
run the frozen seed workload (16-layer dense/ReLU net, Revolve c=3),
and the paired per-round ratio must stay under 1.05x.

The second gate times the VM's two dispatch paths for one program: the
vectorized whole-program pass on a plain ``SimBackend`` against the
per-action loop, and records the cold (compile-included) cost.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import DenseLayer, ReLULayer, SequentialNet, run_schedule
from repro.autodiff.executor import CheckpointedResult
from repro.autodiff.loss import softmax_cross_entropy
from repro.autodiff.meter import MemoryMeter
from repro.checkpointing import ChainSpec, revolve_schedule
from repro.checkpointing.actions import ActionKind
from repro.engine import SimBackend, compile_schedule, execute
from repro.errors import ExecutionError
from repro.obs import get_tracer

from paired import paired_ratio

DEPTH = 16
WIDTH = 192
BATCH = 64
SLOTS = 3
REPEATS = 15
NUMBER = 3
MAX_RATIO = 1.05

# Vectorized sim-path gate: with a warm CompiledProgram (the common case —
# every schedule memoizes its program) the whole-program NumPy pass must
# beat per-action dispatch of the same program by at least MIN_SPEEDUP;
# 10x is the target.
SIM_DEPTH = 256
SIM_SLOTS = 8
MIN_SPEEDUP = 5.0
TARGET_SPEEDUP = 10.0


def reference_run_schedule(net, schedule, x, labels, loss_fn=softmax_cross_entropy):
    """The pre-refactor executor loop, frozen verbatim (commit e934dff)."""
    l = len(net)
    if schedule.length != l:
        raise ExecutionError(f"schedule length {schedule.length} != network depth {l}")
    tracer = get_tracer()
    traced = tracer.enabled
    meter = MemoryMeter()
    slots: dict[int, tuple[int, np.ndarray]] = {}
    cursor_idx = 0
    cursor: np.ndarray = x
    meter.hold("cursor", cursor)
    pending = l
    dy: np.ndarray | None = None
    loss_value: float | None = None
    grads = {}
    forward_steps = 0
    replay_steps = 0
    peak_slot_bytes = 0
    t0 = 0.0

    def _slot_bytes() -> int:
        return sum(int(a.nbytes) for _, a in slots.values())

    with tracer.span(
        "run_schedule",
        category="exec",
        strategy=schedule.strategy,
        length=l,
        slots=schedule.slots,
    ) as run_span:
        for pos, action in enumerate(schedule.actions):
            kind = action.kind
            if traced:
                t0 = tracer.now()
            if kind is ActionKind.ADVANCE:
                to = action.arg
                if not cursor_idx < to <= l:
                    raise ExecutionError(f"action {pos}: ADVANCE {cursor_idx}->{to} invalid")
                for i in range(cursor_idx, to):
                    cursor = net.layers[i].forward(cursor)
                    meter.hold("cursor", cursor)
                    forward_steps += 1
                cursor_idx = to
            elif kind is ActionKind.SNAPSHOT:
                if action.arg >= schedule.slots:
                    raise ExecutionError(
                        f"action {pos}: slot {action.arg} exceeds budget {schedule.slots}"
                    )
                slots[action.arg] = (cursor_idx, cursor)
                meter.hold(f"slot{action.arg}", cursor)
                peak_slot_bytes = max(peak_slot_bytes, _slot_bytes())
            elif kind is ActionKind.RESTORE:
                if action.arg not in slots:
                    raise ExecutionError(f"action {pos}: RESTORE from empty slot {action.arg}")
                cursor_idx, cursor = slots[action.arg]
                meter.hold("cursor", cursor)
            elif kind is ActionKind.FREE:
                if action.arg not in slots:
                    raise ExecutionError(f"action {pos}: FREE of empty slot {action.arg}")
                del slots[action.arg]
                meter.release(f"slot{action.arg}")
            elif kind is ActionKind.ADJOINT:
                step = action.arg
                if step != pending:
                    raise ExecutionError(
                        f"action {pos}: ADJOINT({step}) out of order (pending {pending})"
                    )
                if cursor_idx != step - 1:
                    raise ExecutionError(
                        f"action {pos}: ADJOINT({step}) needs cursor at {step - 1}, "
                        f"have {cursor_idx}"
                    )
                layer = net.layers[step - 1]
                if step == l:
                    y = layer.forward(cursor)
                    meter.hold("head", y)
                    loss_value, dy = loss_fn(y, labels)
                    meter.release("head")
                    meter.hold("grad", dy)
                if dy is None:
                    raise ExecutionError("gradient flow unseeded")
                replay_steps += 1
                dx, layer_grads = layer.backward(cursor, dy)
                dy = dx
                meter.hold("grad", dy)
                for pname, g in layer_grads.items():
                    grads[(layer.name, pname)] = g
                pending -= 1
            else:
                raise ExecutionError(f"unknown action kind {kind}")
            if traced:
                tracer.record(
                    kind.name,
                    "action",
                    t0,
                    arg=action.arg,
                    pos=pos,
                    live_bytes=meter.current_bytes,
                )

        if pending != 0:
            raise ExecutionError(f"schedule left backward steps {pending}..1 undone")
        assert loss_value is not None
        run_span.set_tag("peak_bytes", meter.peak_bytes)
    return CheckpointedResult(
        loss=loss_value,
        grads=grads,
        peak_bytes=meter.peak_bytes,
        peak_slot_bytes=peak_slot_bytes,
        forward_steps=forward_steps,
        replay_steps=replay_steps,
    )


def build():
    rng = np.random.default_rng(0)
    layers = []
    for i in range(DEPTH - 1):
        if i % 2:
            layers.append(ReLULayer(name=f"r{i}"))
        else:
            layers.append(DenseLayer(WIDTH, WIDTH, rng, name=f"fc{i}"))
    layers.append(DenseLayer(WIDTH, 10, rng, name="head"))
    net = SequentialNet(layers)
    x = rng.normal(size=(BATCH, WIDTH))
    y = rng.integers(0, 10, size=BATCH)
    return net, x, y


def test_vm_executor_within_five_percent(outdir):
    net, x, y = build()
    sch = revolve_schedule(DEPTH, SLOTS)

    # Identical numerics first — the VM runs the same math in the same order.
    ref = reference_run_schedule(net, sch, x, y)
    ours = run_schedule(net, sch, x, y)
    assert ours.loss == ref.loss
    assert ours.forward_steps == ref.forward_steps
    assert ours.replay_steps == ref.replay_steps
    assert ours.peak_bytes == ref.peak_bytes
    assert ours.peak_slot_bytes == ref.peak_slot_bytes
    for k in ref.grads:
        assert np.array_equal(ours.grads[k], ref.grads[k])

    ratio, t_ref, t_vm = paired_ratio(
        lambda: reference_run_schedule(net, sch, x, y),
        lambda: run_schedule(net, sch, x, y),
        repeats=REPEATS,
        number=NUMBER,
    )

    report = (
        f"run_schedule, l={DEPTH}, revolve c={SLOTS}, batch={BATCH}x{WIDTH}\n"
        f"pre-refactor executor: {t_ref * 1e3:.3f} ms\n"
        f"engine VM + TensorBackend: {t_vm * 1e3:.3f} ms  "
        f"({ratio:.3f}x, budget {MAX_RATIO:.2f}x)\n"
    )
    (outdir / "engine_overhead.txt").write_text(report)
    print(report)

    assert ratio <= MAX_RATIO, (
        f"VM executor overhead {ratio:.3f}x exceeds {MAX_RATIO:.2f}x budget"
    )


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
