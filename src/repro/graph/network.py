"""Network graphs: a small DAG IR with shape inference and summaries.

A :class:`Graph` owns :class:`Node` objects, each wrapping a
:class:`~repro.graph.layer.Layer` and naming its input nodes.  Calling
:meth:`Graph.infer` topologically sorts the DAG and propagates
:class:`~repro.graph.tensor.TensorSpec` through every node, after which
per-node output specs, parameter totals and FLOPs are available.

:class:`Sequential` is a convenience builder for straight-line models.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import GraphError
from .layer import Layer, ParamSpec
from .layers import Input
from .tensor import TensorSpec

__all__ = ["Node", "Graph", "Sequential"]


@dataclass
class Node:
    """A placed layer inside a graph: the layer plus its input node names."""

    name: str
    layer: Layer
    inputs: tuple[str, ...] = ()
    #: Filled in by :meth:`Graph.infer`.
    output: TensorSpec | None = None

    @property
    def is_source(self) -> bool:
        return isinstance(self.layer, Input)


class Graph:
    """A directed acyclic graph of layers with symbolic shape inference."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._order: list[str] | None = None
        self._outputs: list[str] = []

    # -- construction ---------------------------------------------------
    def add(self, name: str, layer: Layer, inputs: Iterable[str] = ()) -> str:
        """Add a layer under ``name`` consuming the named input nodes.

        Returns ``name`` so calls can be chained/nested fluently.
        """
        if name in self._nodes:
            raise GraphError(f"duplicate node name {name!r}")
        inputs = tuple(inputs)
        for src in inputs:
            if src not in self._nodes:
                raise GraphError(f"node {name!r} references unknown input {src!r}")
        if layer.arity != len(inputs):
            raise GraphError(
                f"node {name!r}: layer {type(layer).__name__} has arity "
                f"{layer.arity} but {len(inputs)} inputs were wired"
            )
        if not layer.name:
            layer.name = name
        self._nodes[name] = Node(name=name, layer=layer, inputs=inputs)
        self._order = None
        return name

    def add_input(self, name: str, spec: TensorSpec) -> str:
        """Add a source node carrying ``spec``."""
        return self.add(name, Input(spec=spec))

    def mark_output(self, name: str) -> None:
        """Declare ``name`` as a graph output (defaults to terminal nodes)."""
        if name not in self._nodes:
            raise GraphError(f"unknown output node {name!r}")
        if name not in self._outputs:
            self._outputs.append(name)

    # -- structure ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> list[Node]:
        """Nodes in topological order (infer/validate on demand)."""
        return [self._nodes[n] for n in self.topological_order()]

    @property
    def outputs(self) -> list[str]:
        """Declared outputs, or all sink nodes if none were declared."""
        if self._outputs:
            return list(self._outputs)
        consumed = {src for node in self._nodes.values() for src in node.inputs}
        return [n for n in self.topological_order() if n not in consumed]

    def consumers(self, name: str) -> list[str]:
        """Names of nodes that read ``name``."""
        return [n.name for n in self._nodes.values() if name in n.inputs]

    def topological_order(self) -> list[str]:
        """Kahn topological sort; raises :class:`GraphError` on cycles.

        Returns a fresh list — callers may mutate it freely without
        corrupting the graph's cached order.
        """
        if self._order is not None:
            return list(self._order)
        # Ready nodes pop in insertion order (heap keyed on insertion
        # index); a consumer index lists each reader once per input edge.
        names = list(self._nodes)
        insertion = {name: i for i, name in enumerate(names)}
        indeg = [len(self._nodes[name].inputs) for name in names]
        consumers: list[list[int]] = [[] for _ in names]
        for k, name in enumerate(names):
            for src in self._nodes[name].inputs:
                consumers[insertion[src]].append(k)
        ready = [k for k, d in enumerate(indeg) if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            cur = heapq.heappop(ready)
            order.append(names[cur])
            for k in consumers[cur]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    heapq.heappush(ready, k)
        if len(order) != len(self._nodes):
            raise GraphError(f"graph {self.name!r} has a cycle")
        self._order = order
        return list(order)

    # -- analysis ---------------------------------------------------------
    def infer(self) -> dict[str, TensorSpec]:
        """Run shape inference over the whole graph; returns name→spec."""
        specs: dict[str, TensorSpec] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            in_specs = [specs[src] for src in node.inputs]
            node.output = node.layer.infer(in_specs)
            specs[name] = node.output
        return specs

    def _ensure_inferred(self) -> None:
        if any(self._nodes[n].output is None for n in self._nodes):
            self.infer()

    def iter_params(self) -> Iterator[tuple[str, ParamSpec]]:
        """Yield (node_name, param_spec) for every declared parameter."""
        for name in self.topological_order():
            for p in self._nodes[name].layer.params():
                yield name, p

    @property
    def trainable_numel(self) -> int:
        """Total trainable parameter count (matches torchvision for zoo nets)."""
        return sum(p.numel for _, p in self.iter_params() if p.trainable)

    @property
    def trainable_bytes(self) -> int:
        return sum(p.nbytes for _, p in self.iter_params() if p.trainable)

    @property
    def buffer_numel(self) -> int:
        return sum(p.numel for _, p in self.iter_params() if not p.trainable)

    @property
    def buffer_bytes(self) -> int:
        return sum(p.nbytes for _, p in self.iter_params() if not p.trainable)

    def activation_bytes_per_sample(self, include_inplace: bool = True) -> int:
        """Sum of all node output sizes per sample.

        With ``include_inplace=False``, outputs of layers flagged
        ``inplace_capable`` (ReLU) are skipped, modelling frameworks that
        overwrite them in place.
        """
        self._ensure_inferred()
        total = 0
        for node in self.nodes:
            if not include_inplace and node.layer.inplace_capable:
                continue
            assert node.output is not None
            total += node.output.nbytes
        return total

    def total_flops_per_sample(self) -> int:
        """Total per-sample forward FLOPs."""
        self._ensure_inferred()
        total = 0
        for node in self.nodes:
            in_specs = [self._nodes[src].output for src in node.inputs]
            assert node.output is not None
            total += node.layer.flops([s for s in in_specs if s is not None], node.output)
        return total

    def summary(self) -> str:
        """Human-readable layer table (name, type, output, params)."""
        self._ensure_inferred()
        lines = [f"Graph {self.name!r}: {len(self)} nodes"]
        header = f"{'node':<28}{'layer':<18}{'output':<20}{'params':>12}"
        lines += [header, "-" * len(header)]
        for node in self.nodes:
            nparam = node.layer.trainable_numel
            lines.append(
                f"{node.name:<28}{type(node.layer).__name__:<18}"
                f"{str(node.output):<20}{nparam:>12,}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"trainable params: {self.trainable_numel:,}  "
            f"buffers: {self.buffer_numel:,}"
        )
        return "\n".join(lines)


class Sequential(Graph):
    """Straight-line graph builder: each layer consumes the previous one."""

    def __init__(self, input_spec: TensorSpec, name: str = "sequential") -> None:
        super().__init__(name=name)
        self._tail = self.add_input("input", input_spec)
        self._counter = 0

    def append(self, layer: Layer, name: str | None = None) -> str:
        """Append a unary layer after the current tail; returns its name."""
        if layer.arity != 1:
            raise GraphError("Sequential.append only accepts unary layers")
        if name is None:
            self._counter += 1
            name = f"{type(layer).__name__.lower()}_{self._counter}"
        self._tail = self.add(name, layer, [self._tail])
        return self._tail

    @property
    def tail(self) -> str:
        return self._tail
