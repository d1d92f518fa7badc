"""Memory-aware topological ordering for DAG inference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import (
    Add,
    Concat,
    Conv2d,
    Graph,
    Identity,
    TensorSpec,
    greedy_min_peak_order,
    optimal_order,
    peak_memory_of_order,
)
from repro.zoo import plain_chain, tiny_residual


def wide_graph(branch_channels=(16, 2, 2)) -> Graph:
    """input -> N parallel convs -> concat: order determines peak."""
    g = Graph("wide")
    src = g.add_input("input", TensorSpec((4, 8, 8)))
    names = []
    for i, ch in enumerate(branch_channels):
        names.append(
            g.add(f"branch{i}", Conv2d(in_channels=4, out_channels=ch, kernel_size=1), [src])
        )
    merge = Concat()
    merge.arity = len(names)
    g.add("merge", merge, names)
    g.infer()
    return g


class TestPeakOfOrder:
    def test_chain_order_invariant(self):
        g = plain_chain(depth=5, features=8)
        order = g.topological_order()
        assert peak_memory_of_order(g, order) > 0

    def test_rejects_non_permutation(self):
        g = plain_chain(depth=3, features=8)
        with pytest.raises(GraphError):
            peak_memory_of_order(g, g.topological_order()[:-1])

    def test_rejects_non_topological(self):
        g = plain_chain(depth=3, features=8)
        order = g.topological_order()
        order[0], order[-1] = order[-1], order[0]
        with pytest.raises(GraphError):
            peak_memory_of_order(g, order)

    def test_outputs_stay_live(self):
        g = plain_chain(depth=2, features=8)
        g.infer()
        peak = peak_memory_of_order(g, g.topological_order())
        # final two activations co-live at the last step
        assert peak >= g.node(g.outputs[0]).output.nbytes

    def test_order_changes_peak_on_wide_graph(self):
        """Running the big branch first vs last gives different peaks."""
        g = wide_graph()
        base = ["input", "branch0", "branch1", "branch2", "merge"]
        alt = ["input", "branch1", "branch2", "branch0", "merge"]
        # Both valid topological orders; branches all stay live until the
        # merge, so here the peaks coincide — the point is they are legal.
        assert peak_memory_of_order(g, base) == peak_memory_of_order(g, alt)


def diamond_with_heavy_side() -> Graph:
    """A graph where executing the heavy side early is worse.

    input -> heavy(32ch) -> reduce(1ch) -+
    input -> light(1ch) ----------------> add? (different shapes) -> use concat
    """
    g = Graph("heavy_side")
    src = g.add_input("input", TensorSpec((2, 8, 8)))
    heavy = g.add("heavy", Conv2d(in_channels=2, out_channels=32, kernel_size=1), [src])
    hred = g.add("heavy_reduce", Conv2d(in_channels=32, out_channels=1, kernel_size=1), [heavy])
    light = g.add("light", Conv2d(in_channels=2, out_channels=1, kernel_size=1), [src])
    merge = Concat()
    merge.arity = 2
    g.add("merge", merge, [hred, light])
    g.infer()
    return g


def inception_block() -> Graph:
    """input -> 4 branches (1x1 / 3x3 / 5x5 / wide-then-narrow) -> concat."""
    g = Graph("inception")
    src = g.add_input("input", TensorSpec((8, 16, 16)))
    b0 = g.add("b0", Conv2d(in_channels=8, out_channels=4, kernel_size=1), [src])
    b1a = g.add("b1a", Conv2d(in_channels=8, out_channels=24, kernel_size=1), [src])
    b1 = g.add("b1", Conv2d(in_channels=24, out_channels=4, kernel_size=3, padding=1), [b1a])
    b2a = g.add("b2a", Conv2d(in_channels=8, out_channels=16, kernel_size=1), [src])
    b2 = g.add("b2", Conv2d(in_channels=16, out_channels=4, kernel_size=5, padding=2), [b2a])
    b3 = g.add("b3", Conv2d(in_channels=8, out_channels=4, kernel_size=1), [src])
    merge = Concat()
    merge.arity = 4
    g.add("merge", merge, [b0, b1, b2, b3])
    g.infer()
    return g


def all_topological_orders(g: Graph):
    """Every valid execution order, by depth-first extension."""
    deps = {n.name: set(n.inputs) for n in g.nodes}

    def extend(order, done):
        if len(order) == len(deps):
            yield list(order)
            return
        for name, needs in deps.items():
            if name not in done and needs <= done:
                order.append(name)
                yield from extend(order, done | {name})
                order.pop()

    yield from extend([], frozenset())


class TestOrderingChoice:
    def test_greedy_is_valid(self):
        g = diamond_with_heavy_side()
        order = greedy_min_peak_order(g)
        peak_memory_of_order(g, order)  # raises if invalid

    def test_greedy_beats_worst_order(self):
        g = diamond_with_heavy_side()
        # Worst: run light first so it stays live through the heavy spike.
        bad = ["input", "light", "heavy", "heavy_reduce", "merge"]
        good = greedy_min_peak_order(g)
        assert peak_memory_of_order(g, good) <= peak_memory_of_order(g, bad)

    def test_optimal_no_worse_than_greedy(self):
        g = diamond_with_heavy_side()
        greedy_peak = peak_memory_of_order(g, greedy_min_peak_order(g))
        _, opt_peak = optimal_order(g)
        assert opt_peak <= greedy_peak

    def test_optimal_order_is_valid_and_achieves_peak(self):
        g = diamond_with_heavy_side()
        order, peak = optimal_order(g)
        assert peak_memory_of_order(g, order) == peak

    def test_optimal_on_residual_block(self):
        g = tiny_residual()
        # tiny_residual has ~13 nodes; within the exhaustive limit.
        order, peak = optimal_order(g, max_nodes=16)
        greedy_peak = peak_memory_of_order(g, greedy_min_peak_order(g))
        assert peak <= greedy_peak

    def test_inception_block_ordering_gap(self):
        """Exhaustive enumeration confirms the branch-and-bound optimum,
        greedy lands between best and worst, and ordering matters on
        this block (> 15% spread between the best and worst orders)."""
        g = inception_block()
        _, opt_peak = optimal_order(g)
        peaks = [peak_memory_of_order(g, order) for order in all_topological_orders(g)]
        greedy_peak = peak_memory_of_order(g, greedy_min_peak_order(g))
        assert opt_peak == min(peaks)
        assert min(peaks) <= greedy_peak <= max(peaks)
        assert max(peaks) > 1.15 * min(peaks)

    def test_size_guard(self):
        g = plain_chain(depth=30, features=4)
        with pytest.raises(GraphError):
            optimal_order(g, max_nodes=10)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_greedy_valid_on_random_graphs(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        g = Graph(f"r{seed}")
        src = g.add_input("input", TensorSpec((2, 4, 4)))
        frontier = [src]
        for i in range(int(rng.integers(2, 7))):
            pick = frontier[int(rng.integers(0, len(frontier)))]
            n = g.add(f"n{i}", Identity(), [pick])
            frontier.append(n)
        # merge all sinks via chained adds when shapes allow (Identity
        # preserves shapes, so they do)
        sinks = [n for n in g.topological_order() if not g.consumers(n)]
        while len(sinks) > 1:
            a, b = sinks[0], sinks[1]
            m = g.add(f"m{len(sinks)}_{a}_{b}", Add(), [a, b])
            sinks = [m] + sinks[2:]
        order = greedy_min_peak_order(g)
        peak_memory_of_order(g, order)  # must not raise
