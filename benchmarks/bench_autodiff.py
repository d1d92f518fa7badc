"""E11 — executable checkpointing: real training-step cost and memory.

Benchmarks one optimizer step of a 16-layer NumPy chain under store-all,
uniform and Revolve schedules, verifying gradients identical and the
peak-memory/time trade-off (revolve at c=2 uses the least live memory and
the most recompute).
"""

import numpy as np
import pytest

from repro.autodiff import DenseLayer, ReLULayer, SequentialNet, run_schedule
from repro.checkpointing import revolve_schedule, store_all_schedule, uniform_schedule

DEPTH = 16
WIDTH = 128
BATCH = 64


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


SCHEDULES = {
    "store_all": lambda: store_all_schedule(DEPTH),
    "uniform_s4": lambda: uniform_schedule(DEPTH, 4),
    "revolve_c4": lambda: revolve_schedule(DEPTH, 4),
    "revolve_c2": lambda: revolve_schedule(DEPTH, 2),
}


@pytest.fixture(scope="module")
def steps_file(outdir):
    """``autodiff_steps.txt``, emptied once per run; each case appends its line."""
    path = outdir / "autodiff_steps.txt"
    path.write_text("")
    return path


@pytest.mark.parametrize("name", list(SCHEDULES))
def test_training_step(name, benchmark, steps_file):
    net, x, y = build()
    sch = SCHEDULES[name]()
    res = benchmark(lambda: run_schedule(net, sch, x, y))

    # Gradients identical to the store-all reference.
    loss_ref, grads_ref, _ = net.train_step(x, y)
    assert res.loss == loss_ref
    for k in grads_ref:
        assert np.array_equal(res.grads[k], grads_ref[k])

    line = (
        f"{name}: peak_bytes={res.peak_bytes} forward_steps={res.forward_steps} "
        f"replays={res.replay_steps}\n"
    )
    with open(steps_file, "a") as fh:
        fh.write(line)


def test_memory_vs_recompute_frontier(benchmark, outdir):
    """The executable frontier: fewer slots => less memory, more forwards."""
    net, x, y = build()

    def sweep():
        rows = []
        for c in (DEPTH - 1, 8, 4, 2, 1):
            res = run_schedule(net, revolve_schedule(DEPTH, c), x, y)
            rows.append((c, res.peak_bytes, res.forward_steps))
        return rows

    rows = benchmark.pedantic(sweep, rounds=3, iterations=1)
    (outdir / "autodiff_frontier.csv").write_text(
        "slots,peak_bytes,forward_steps\n"
        + "\n".join(f"{c},{p},{f}" for c, p, f in rows)
        + "\n"
    )
    peaks = [p for _, p, _ in rows]
    fwds = [f for _, _, f in rows]
    assert peaks == sorted(peaks, reverse=True)
    assert fwds == sorted(fwds)
