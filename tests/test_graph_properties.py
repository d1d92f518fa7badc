"""Property tests over randomly generated networks.

A generator builds random sequential/residual CNN-ish graphs; the
invariants below must hold for every one of them — these are the
assumptions the whole memory/checkpointing stack rests on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.checkpointing import ChainSpec, revolve_schedule, simulate
from repro.graph import (
    Add,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Graph,
    Linear,
    MaxPool2d,
    ReLU,
    TensorSpec,
    homogenize,
)
from repro.memory import INFERENCE_POLICY, TRAINING_POLICY, account


def random_graph(seed: int, n_blocks: int, image: int, channels: int) -> Graph:
    """A random stack of conv/residual blocks with a linear head."""
    rng = np.random.default_rng(seed)
    g = Graph(name=f"rand{seed}")
    src = g.add_input("input", TensorSpec((3, image, image)))
    ch = 3
    size = image
    for b in range(n_blocks):
        kind = rng.integers(0, 3)
        if kind == 0:  # plain conv->bn->relu
            out_ch = channels * (1 + int(rng.integers(0, 3)))
            src = g.add(
                f"b{b}_conv",
                Conv2d(in_channels=ch, out_channels=out_ch, kernel_size=3, padding=1),
                [src],
            )
            src = g.add(f"b{b}_bn", BatchNorm2d(num_features=out_ch), [src])
            src = g.add(f"b{b}_relu", ReLU(), [src])
            ch = out_ch
        elif kind == 1 and size >= 4:  # pool
            src = g.add(f"b{b}_pool", MaxPool2d(kernel_size=2), [src])
            size //= 2
        else:  # residual pair
            y = g.add(
                f"b{b}_rconv1",
                Conv2d(in_channels=ch, out_channels=ch, kernel_size=3, padding=1),
                [src],
            )
            y = g.add(f"b{b}_rrelu", ReLU(), [y])
            y = g.add(
                f"b{b}_rconv2",
                Conv2d(in_channels=ch, out_channels=ch, kernel_size=3, padding=1),
                [y],
            )
            src = g.add(f"b{b}_radd", Add(), [y, src])
    src = g.add("gap", GlobalAvgPool(), [src])
    src = g.add("fc", Linear(in_features=ch, out_features=5), [src])
    g.infer()
    return g


graph_params = dict(
    seed=st.integers(0, 10_000),
    n_blocks=st.integers(1, 6),
    image=st.sampled_from([8, 16, 32]),
    channels=st.sampled_from([4, 8]),
)


@given(**graph_params)
@settings(max_examples=30, deadline=None)
def test_accounting_orderings(seed, n_blocks, image, channels):
    """Inference never costs more than training; input counts once."""
    g = random_graph(seed, n_blocks, image, channels)
    inf = account(g, INFERENCE_POLICY)
    train = account(g, TRAINING_POLICY)
    assert inf.fixed_bytes <= train.fixed_bytes
    assert inf.act_bytes_per_sample <= train.act_bytes_per_sample
    assert train.total_bytes(1) < train.total_bytes(2)


@given(**graph_params)
@settings(max_examples=25, deadline=None)
def test_homogenized_chain_schedulable(seed, n_blocks, image, channels):
    """Every random graph homogenizes into a schedulable chain."""
    g = random_graph(seed, n_blocks, image, channels)
    depth = max(2, len(g) // 3)
    chain = homogenize(g, depth=depth)
    spec = ChainSpec.from_linear_chain(chain)
    stats = simulate(revolve_schedule(depth, 2), spec)
    assert stats.replay_steps == depth


@given(**graph_params)
@settings(max_examples=25, deadline=None)
def test_records_reconstruct_totals(seed, n_blocks, image, channels):
    """Per-node parameter counts sum to the graph's total."""
    g = random_graph(seed, n_blocks, image, channels)
    g.infer()
    assert sum(n.layer.trainable_numel for n in g.nodes) == g.trainable_numel
    assert len(g.nodes) == len(g)
