"""Train a real (NumPy) CNN under a memory cap with Revolve schedules.

This is the paper's Section VI claim made executable: the checkpointed
backward pass produces gradients numerically identical to store-all while
holding far fewer activations live.  We train a small CNN on synthetic
images three ways — store-all, PyTorch-style uniform, and optimal
Revolve — and report loss trajectories (identical), measured peak bytes,
and forward-step overhead.

Run: ``python examples/checkpointed_training.py``
"""

import numpy as np

from repro.autodiff import (
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    Momentum,
    ReLULayer,
    SequentialNet,
    Trainer,
    TrainerConfig,
    image_blobs,
)
from repro.checkpointing import (
    revolve_schedule,
    simulate,
    store_all_schedule,
    uniform_schedule,
)
from repro.units import humanize_bytes


def build_net(rng: np.random.Generator) -> SequentialNet:
    """A 12-layer chain: deep enough for checkpointing to matter."""
    return SequentialNet(
        [
            ConvLayer(1, 8, 3, rng, padding=1, name="c1"),
            ReLULayer("r1"),
            ConvLayer(8, 8, 3, rng, padding=1, name="c2"),
            ReLULayer("r2"),
            MaxPoolLayer(2, "p1"),
            ConvLayer(8, 16, 3, rng, padding=1, name="c3"),
            ReLULayer("r3"),
            MaxPoolLayer(2, "p2"),
            FlattenLayer("f"),
            DenseLayer(16 * 4 * 4, 32, rng, "d1"),
            ReLULayer("r4"),
            DenseLayer(32, 4, rng, "d2"),
        ],
        name="edge_cnn",
    )


def train(schedule_name: str, epochs: int = 5, seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    net = build_net(rng)
    data = image_blobs(n_per_class=40, num_classes=4, size=16, rng=rng, noise=0.9)
    opt = Momentum(net.layers, lr=0.05)

    l = len(net)
    schedules = {
        "store_all": store_all_schedule(l),
        "uniform_s3": uniform_schedule(l, 3),
        "revolve_c3": revolve_schedule(l, 3),
    }
    schedule = schedules[schedule_name]

    # Same shuffle seed each run => same batch order.
    config = TrainerConfig(epochs=epochs, batch_size=16, shuffle_seed=seed + 1, schedule=schedule)
    trainer = Trainer(net, opt, config)
    history = trainer.fit(data)
    print(
        f"{schedule_name:>11}: final loss {history[-1].mean_loss:.4f}  "
        f"peak live bytes {humanize_bytes(trainer.peak_bytes):>10}  "
        f"extra forwards/step {simulate(schedule).extra_forward_steps()}"
    )


def main() -> None:
    print("Training the same CNN under three checkpoint schedules")
    print("(identical batch order and init => identical losses):\n")
    for name in ("store_all", "uniform_s3", "revolve_c3"):
        train(name)


if __name__ == "__main__":
    main()
