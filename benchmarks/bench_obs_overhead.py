"""Observability overhead: disabled tracing must cost ≤5% on run_schedule.

The instrumented executor pays two null checks per schedule action when
the process tracer is the default :class:`~repro.obs.NullTracer`.  This
benchmark freezes the *seed* executor loop (pre-instrumentation, copied
verbatim below) as the reference, times both on the same Revolve
schedule with min-of-repeats, and asserts the instrumented/reference
ratio stays under 1.05.  The campaign-telemetry tracer
(:class:`~repro.obs.RunlogTracer` — coarse spans only, hot paths
disabled) is held to the SAME ≤1.05x budget, since ``--telemetry``
installs it around every unit compute.  The fully enabled tracer cost
is reported alongside for context (no assertion — enabled tracing is
allowed to cost).  Results also land in ``out/BENCH_obs.json``.
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.autodiff import DenseLayer, ReLULayer, SequentialNet, run_schedule
from repro.autodiff.executor import CheckpointedResult
from repro.autodiff.loss import softmax_cross_entropy
from repro.autodiff.meter import MemoryMeter
from repro.checkpointing import revolve_schedule
from repro.checkpointing.actions import ActionKind
from repro.errors import ExecutionError
from repro.obs import RunlogTracer, set_tracer, tracing

from paired import paired_ratio

DEPTH = 16
WIDTH = 192
BATCH = 64
SLOTS = 3
REPEATS = 15
NUMBER = 3
MAX_RATIO = 1.05


def reference_run_schedule(net, schedule, x, labels, loss_fn=softmax_cross_entropy):
    """The seed executor loop, frozen verbatim (commit 7ce2f3f)."""
    l = len(net)
    if schedule.length != l:
        raise ExecutionError(f"schedule length {schedule.length} != network depth {l}")
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

    def _slot_bytes() -> int:
        return sum(int(a.nbytes) for _, a in slots.values())

    for pos, action in enumerate(schedule.actions):
        kind = action.kind
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

    if pending != 0:
        raise ExecutionError(f"schedule left backward steps {pending}..1 undone")
    assert loss_value is not None
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


def best_of(fn) -> float:
    """Min-of-repeats per-call seconds: robust to scheduler noise."""
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEATS)) / NUMBER


def test_disabled_overhead_under_five_percent(outdir, bench_json):
    net, x, y = build()
    sch = revolve_schedule(DEPTH, SLOTS)

    # Identical numerics first — the instrumented loop is the same loop.
    ref = reference_run_schedule(net, sch, x, y)
    ours = run_schedule(net, sch, x, y)
    assert ours.loss == ref.loss
    assert ours.forward_steps == ref.forward_steps
    for k in ref.grads:
        assert np.array_equal(ours.grads[k], ref.grads[k])

    ratio, t_ref, t_disabled = paired_ratio(
        lambda: reference_run_schedule(net, sch, x, y),
        lambda: run_schedule(net, sch, x, y),
        repeats=REPEATS,
        number=NUMBER,
    )

    # The --telemetry tracer: coarse spans buffered, hot paths still on
    # their enabled=False branches.  Same budget as fully disabled.
    previous = set_tracer(RunlogTracer())
    try:
        ratio_telemetry, _, t_telemetry = paired_ratio(
            lambda: reference_run_schedule(net, sch, x, y),
            lambda: run_schedule(net, sch, x, y),
            repeats=REPEATS,
            number=NUMBER,
        )
    finally:
        set_tracer(previous)

    with tracing():
        t_enabled = best_of(lambda: run_schedule(net, sch, x, y))

    report = (
        f"run_schedule, l={DEPTH}, revolve c={SLOTS}, batch={BATCH}x{WIDTH}\n"
        f"reference (seed loop):  {t_ref * 1e3:.3f} ms\n"
        f"instrumented, disabled: {t_disabled * 1e3:.3f} ms  "
        f"({ratio:.3f}x, budget {MAX_RATIO:.2f}x)\n"
        f"telemetry (RunlogTracer): {t_telemetry * 1e3:.3f} ms  "
        f"({ratio_telemetry:.3f}x, budget {MAX_RATIO:.2f}x)\n"
        f"instrumented, enabled:  {t_enabled * 1e3:.3f} ms  "
        f"({t_enabled / t_ref:.3f}x)\n"
    )
    (outdir / "obs_overhead.txt").write_text(report)
    print(report)

    bench_json(
        "obs",
        {
            "workload": {
                "depth": DEPTH,
                "width": WIDTH,
                "batch": BATCH,
                "slots": SLOTS,
                "strategy": "revolve",
            },
            "reference_ms": t_ref * 1e3,
            "disabled_ms": t_disabled * 1e3,
            "disabled_ratio": ratio,
            "telemetry_ms": t_telemetry * 1e3,
            "telemetry_ratio": ratio_telemetry,
            "enabled_ms": t_enabled * 1e3,
            "enabled_ratio": t_enabled / t_ref,
            "gate": MAX_RATIO,
            "repeats": REPEATS,
            "number": NUMBER,
        },
    )

    assert ratio <= MAX_RATIO, (
        f"disabled-tracer overhead {ratio:.3f}x exceeds {MAX_RATIO:.2f}x budget"
    )
    assert ratio_telemetry <= MAX_RATIO, (
        f"telemetry-tracer overhead {ratio_telemetry:.3f}x exceeds "
        f"{MAX_RATIO:.2f}x budget"
    )
