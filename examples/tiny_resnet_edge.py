"""Train a real (NumPy) residual CNN under a planned checkpoint schedule.

The closest executable analog of the paper's scenario: a residual conv
network (each block = one chain step, checkpointed at the block
boundaries), an artificial memory cap standing in for the 2 GB node, the
planner choosing the Revolve slot count, and the schedule-driven executor
doing the training — with a live memory-over-time trace comparing the
plans at the end.

Run: ``python examples/tiny_resnet_edge.py``
"""

import numpy as np

from repro.autodiff import (
    AvgPoolLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    Momentum,
    ReLULayer,
    ResidualBlockLayer,
    SequentialNet,
    Trainer,
    TrainerConfig,
    image_blobs,
)
from repro.checkpointing import (
    ChainSpec,
    revolve_schedule,
    store_all_schedule,
    timeline_ascii,
)
from repro.units import humanize_bytes


def build_tiny_resnet(rng: np.random.Generator, channels: int = 8, blocks: int = 4) -> SequentialNet:
    layers = [ConvLayer(1, channels, 3, rng, padding=1, name="stem")]
    for b in range(blocks):
        body = [
            ConvLayer(channels, channels, 3, rng, padding=1, name=f"b{b}c1"),
            ReLULayer(f"b{b}r"),
            ConvLayer(channels, channels, 3, rng, padding=1, name=f"b{b}c2"),
        ]
        # Fixup-style init: zero the block's last conv so every block
        # starts as the identity (residual nets without BatchNorm blow up
        # otherwise).
        body[-1].params["W"][:] = 0.0
        layers.append(ResidualBlockLayer(body, name=f"block{b}"))
    layers += [
        AvgPoolLayer(2, "pool"),
        FlattenLayer("flat"),
        DenseLayer(channels * 8 * 8, 4, rng, "head"),
    ]
    return SequentialNet(layers, name="tiny_resnet")


def main() -> None:
    rng = np.random.default_rng(3)
    net = build_tiny_resnet(rng)
    data = image_blobs(n_per_class=50, num_classes=4, size=16, rng=rng, noise=0.7)
    l = len(net)

    # Measure the real per-activation sizes and let Revolve plan under a
    # cap of ~40% of the store-all activation footprint.
    xb0 = data.x[:16]
    sizes = net.activation_bytes(xb0)
    store_all_bytes = sum(sizes)
    print(f"{net.name}: {l} chain steps, store-all activations "
          f"{humanize_bytes(store_all_bytes)} per batch of 16")

    sch = revolve_schedule(l, 2)
    trainer = Trainer(
        net, Momentum(net.layers, lr=0.01), TrainerConfig(epochs=6, batch_size=16, schedule=sch)
    )
    for record in trainer.fit(data):
        print(f"  epoch {record.epoch}: loss {record.mean_loss:.4f}")
    acc = trainer.evaluate(data)
    peak = trainer.peak_bytes
    print(f"final accuracy {acc:.3f}; peak live bytes {humanize_bytes(peak)} "
          f"({peak / store_all_bytes:.0%} of store-all activations)")

    # Memory-over-time: the sawtooth vs the triangle.
    spec = ChainSpec(
        name=net.name,
        act_bytes=tuple(sizes),
        fwd_cost=(1.0,) * l,
        bwd_cost=(1.0,) * l,
    )
    print()
    print(timeline_ascii(
        {"revolve(c=2)": sch, "store_all": store_all_schedule(l)}, spec
    ))


if __name__ == "__main__":
    main()
