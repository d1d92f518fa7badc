"""Graph construction, topological sort, inference and summaries."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Add,
    Conv2d,
    Graph,
    Identity,
    Linear,
    ReLU,
    Sequential,
    TensorSpec,
)


def diamond_graph() -> Graph:
    """input -> conv -> (a, b) -> add."""
    g = Graph("diamond")
    src = g.add_input("in", TensorSpec((4, 8, 8)))
    stem = g.add("stem", Conv2d(in_channels=4, out_channels=8, kernel_size=3, padding=1), [src])
    a = g.add("a", Conv2d(in_channels=8, out_channels=8, kernel_size=3, padding=1), [stem])
    b = g.add("b", Identity(), [stem])
    g.add("merge", Add(), [a, b])
    return g


class TestConstruction:
    def test_duplicate_names_rejected(self):
        g = Graph()
        g.add_input("in", TensorSpec((4,)))
        with pytest.raises(GraphError):
            g.add_input("in", TensorSpec((4,)))

    def test_unknown_input_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add("x", Identity(), ["missing"])

    def test_arity_checked_at_wiring(self):
        g = Graph()
        a = g.add_input("a", TensorSpec((4,)))
        with pytest.raises(GraphError):
            g.add("add", Add(), [a])  # Add needs two inputs

    def test_layer_name_defaults_to_node_name(self):
        g = Graph()
        g.add_input("in", TensorSpec((4,)))
        layer = Identity()
        g.add("mid", layer, ["in"])
        assert layer.name == "mid"


class TestTopology:
    def test_topological_order_respects_edges(self):
        g = diamond_graph()
        order = g.topological_order()
        assert order.index("stem") < order.index("a")
        assert order.index("stem") < order.index("b")
        assert order.index("a") < order.index("merge")

    def test_outputs_default_to_sinks(self):
        g = diamond_graph()
        assert g.outputs == ["merge"]

    def test_mark_output(self):
        g = diamond_graph()
        g.mark_output("a")
        assert g.outputs == ["a"]

    def test_mark_unknown_output(self):
        with pytest.raises(GraphError):
            diamond_graph().mark_output("nope")

    def test_consumers(self):
        g = diamond_graph()
        assert set(g.consumers("stem")) == {"a", "b"}

    def test_len_and_contains(self):
        g = diamond_graph()
        assert len(g) == 5
        assert "stem" in g and "zzz" not in g

    def test_node_lookup_error(self):
        with pytest.raises(GraphError):
            diamond_graph().node("zzz")


def reference_topological_order(g: Graph) -> list[str]:
    """The original quadratic Kahn sort: re-sort the ready list by
    insertion index and scan every node for consumers on each pop."""
    nodes = g._nodes
    indeg = {name: len(node.inputs) for name, node in nodes.items()}
    ready = [n for n, d in indeg.items() if d == 0]
    insertion = {name: i for i, name in enumerate(nodes)}
    order = []
    while ready:
        ready.sort(key=insertion.__getitem__)
        cur = ready.pop(0)
        order.append(cur)
        for other in nodes.values():
            if cur in other.inputs:
                indeg[other.name] -= other.inputs.count(cur)
                if indeg[other.name] == 0:
                    ready.append(other.name)
    return order


class TestTopologicalOrderUnchanged:
    @pytest.mark.parametrize(
        "build",
        ["resnet18", "resnet34", "resnet50", "vgg11", "vgg16", "mobilenet_v2", "tiny_residual"],
    )
    def test_zoo_order_matches_reference(self, build):
        from repro import zoo

        g = getattr(zoo, build)()
        assert g.topological_order() == reference_topological_order(g)

    def test_repeated_input_and_out_of_insertion_order(self):
        """A node reading one input twice, and a hand-rewired graph whose
        insertion order is not topological, sort as they always did."""
        g = Graph("rewired")
        g.add_input("in", TensorSpec((4,)))
        g.add("a", Identity(), ["in"])
        g.add("b", Identity(), ["in"])
        g.add("c", Identity(), ["in"])
        g.add("twice", Add(), ["c", "c"])
        # Rewire so that ``a`` now depends on later nodes.
        g._nodes["a"].inputs = ("twice",)
        g._nodes["b"].inputs = ("a",)
        g._order = None
        order = g.topological_order()
        assert order == reference_topological_order(g)
        assert order == ["in", "c", "twice", "a", "b"]


class TestInference:
    def test_infer_fills_outputs(self):
        g = diamond_graph()
        specs = g.infer()
        assert specs["merge"].shape == (8, 8, 8)
        assert all(n.output is not None for n in g.nodes)

    def test_activation_bytes_counts_all_outputs(self):
        g = diamond_graph()
        g.infer()
        total = sum(n.output.nbytes for n in g.nodes)
        assert g.activation_bytes_per_sample() == total

    def test_activation_bytes_can_skip_inplace(self):
        g = Graph()
        src = g.add_input("in", TensorSpec((4, 4, 4)))
        g.add("relu", ReLU(), [src])
        with_inplace = g.activation_bytes_per_sample(include_inplace=True)
        without = g.activation_bytes_per_sample(include_inplace=False)
        assert with_inplace - without == TensorSpec((4, 4, 4)).nbytes

    def test_trainable_totals(self):
        g = diamond_graph()
        expected = (8 * 4 * 9) + (8 * 8 * 9)  # two no-bias convs
        assert g.trainable_numel == expected
        assert g.trainable_bytes == expected * 4

    def test_flops_aggregate(self):
        g = diamond_graph()
        assert g.total_flops_per_sample() > 0

    def test_summary_mentions_every_node(self):
        g = diamond_graph()
        text = g.summary()
        for name in ("stem", "a", "b", "merge"):
            assert name in text


class TestSequential:
    def test_append_chains(self):
        net = Sequential(TensorSpec((8,)))
        net.append(Linear(in_features=8, out_features=4), "fc")
        assert net.tail == "fc"
        assert net.infer()["fc"].shape == (4,)

    def test_append_autonames(self):
        net = Sequential(TensorSpec((8,)))
        n1 = net.append(Linear(in_features=8, out_features=8))
        n2 = net.append(Linear(in_features=8, out_features=8))
        assert n1 != n2

    def test_append_rejects_multi_input(self):
        net = Sequential(TensorSpec((8,)))
        with pytest.raises(GraphError):
            net.append(Add())


def test_topological_order_returns_fresh_list():
    """Regression: mutating the returned order must not corrupt the
    graph's cached order (it previously aliased the internal list)."""
    g = diamond_graph()
    order = g.topological_order()
    order.reverse()
    assert g.topological_order() != order or len(order) <= 1
    g.infer()  # would KeyError on a corrupted cache


def test_cycle_detection():
    """A hand-wired cycle is caught by the topological sort."""
    g = Graph("cyclic")
    g.add_input("in", TensorSpec((4,)))
    g.add("a", Identity(), ["in"])
    # Force a cycle by mutating internals (the public API cannot build one).
    g._nodes["a"].inputs = ("b",)
    g._nodes["b"] = type(g._nodes["a"])(name="b", layer=Identity(), inputs=("a",))
    g._order = None
    with pytest.raises(GraphError):
        g.topological_order()
