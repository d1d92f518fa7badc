"""Observability overhead: disabled tracing must cost ≤5% on run_schedule.

``run_schedule`` is one :func:`~repro.engine.execute` of the schedule's
compiled program on a :class:`~repro.engine.tensor.TensorBackend`,
wrapped in the process tracer's ``exec`` span and the executor metrics.
The baseline here is that same dispatch with no wrapper at all — a bare
``execute(schedule, TensorBackend(...))`` — so the ratio prices exactly
what observability adds to the one engine.  Both run on the same
Revolve schedule, timed pairwise, and the ``run_schedule``/bare ratio
under the default :class:`~repro.obs.NullTracer` must stay under 1.05.
The campaign-telemetry tracer (:class:`~repro.obs.RunlogTracer` —
coarse spans only, hot paths disabled) is held to the SAME ≤1.05x
budget, since ``--telemetry`` installs it around every unit compute.
The fully enabled tracer cost is reported alongside for context (no
assertion — enabled tracing is allowed to cost).  Results also land in
``out/BENCH_obs.json``.
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.autodiff import DenseLayer, ReLULayer, SequentialNet, run_schedule
from repro.autodiff.loss import softmax_cross_entropy
from repro.checkpointing import revolve_schedule
from repro.engine import TensorBackend, execute
from repro.obs import RunlogTracer, set_tracer, tracing

from paired import paired_ratio

DEPTH = 16
WIDTH = 192
BATCH = 64
SLOTS = 3
REPEATS = 15
NUMBER = 3
MAX_RATIO = 1.05


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

    def bare():
        backend = TensorBackend(net, x, y, softmax_cross_entropy)
        execute(sch, backend)
        return backend

    def observed():
        return run_schedule(net, sch, x, y)

    # Identical numerics first — the wrapper adds spans, not math.
    base, ours = bare(), observed()
    assert ours.loss == base.loss_value
    for k in base.grads:
        assert np.array_equal(ours.grads[k], base.grads[k])

    ratio, t_bare, t_disabled = paired_ratio(
        bare, observed, repeats=REPEATS, number=NUMBER
    )

    # The --telemetry tracer: coarse spans buffered, hot paths still on
    # their enabled=False branches.  Same budget as fully disabled.
    previous = set_tracer(RunlogTracer())
    try:
        ratio_telemetry, _, t_telemetry = paired_ratio(
            bare, observed, repeats=REPEATS, number=NUMBER
        )
    finally:
        set_tracer(previous)

    with tracing():
        t_enabled = best_of(observed)

    report = (
        f"run_schedule, l={DEPTH}, revolve c={SLOTS}, batch={BATCH}x{WIDTH}\n"
        f"bare execute + TensorBackend: {t_bare * 1e3:.3f} ms\n"
        f"run_schedule, disabled: {t_disabled * 1e3:.3f} ms  "
        f"({ratio:.3f}x, budget {MAX_RATIO:.2f}x)\n"
        f"telemetry (RunlogTracer): {t_telemetry * 1e3:.3f} ms  "
        f"({ratio_telemetry:.3f}x, budget {MAX_RATIO:.2f}x)\n"
        f"run_schedule, enabled:  {t_enabled * 1e3:.3f} ms  "
        f"({t_enabled / t_bare:.3f}x)\n"
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
            "bare_ms": t_bare * 1e3,
            "disabled_ms": t_disabled * 1e3,
            "disabled_ratio": ratio,
            "telemetry_ms": t_telemetry * 1e3,
            "telemetry_ratio": ratio_telemetry,
            "enabled_ms": t_enabled * 1e3,
            "enabled_ratio": t_enabled / t_bare,
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
