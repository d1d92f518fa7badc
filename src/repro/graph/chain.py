"""Linearization of network graphs into checkpointable chains.

Checkpointing algorithms (Revolve, ``checkpoint_sequential``, ...) operate
on a *chain*: a sequence of steps ``F_1 .. F_l`` where step ``i`` consumes
exactly the output of step ``i-1``.  Residual networks are DAGs, but they
have natural *cut points* — nodes whose output is the only tensor crossing
into the rest of the network (block boundaries).  :func:`cut_points` finds
them and :func:`linearize` produces a :class:`SegmentChain` whose stages
carry real per-stage activation sizes and FLOPs.

The paper analyses an idealized homogeneous version, ``LinearResNet_x``:
same total weight memory, total activation memory divided evenly over the
nominal depth ``x``.  :func:`homogenize` builds that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GraphError, at_least
from .network import Graph

__all__ = ["ChainStage", "SegmentChain", "cut_points", "linearize", "homogenize", "LinearChain"]


@dataclass(frozen=True)
class ChainStage:
    """One step of a linearized chain.

    ``act_bytes`` is the per-sample size of the stage's *output* (the
    tensor a checkpoint of this stage must hold); ``interior_bytes`` is the
    per-sample total of all activations produced strictly inside the stage
    (live only while the stage's backward runs); ``flops`` is the
    per-sample forward cost.
    """

    name: str
    act_bytes: int
    interior_bytes: int = 0
    flops: int = 0
    param_bytes: int = 0


@dataclass(frozen=True)
class SegmentChain:
    """A chain of :class:`ChainStage` plus network-level constants."""

    name: str
    input_bytes: int
    stages: tuple[ChainStage, ...]
    weight_bytes: int = 0
    buffer_bytes: int = 0

    @property
    def length(self) -> int:
        return len(self.stages)

    @property
    def total_act_bytes(self) -> int:
        """Per-sample activation bytes across all stage outputs + interiors."""
        return sum(s.act_bytes + s.interior_bytes for s in self.stages)

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.stages)

    def is_homogeneous(self) -> bool:
        """True when all stages share output size and cost."""
        if not self.stages:
            return True
        first = self.stages[0]
        return all(
            s.act_bytes == first.act_bytes
            and s.interior_bytes == first.interior_bytes
            and s.flops == first.flops
            for s in self.stages
        )


@dataclass(frozen=True)
class LinearChain:
    """The paper's homogeneous chain: ``l`` identical steps.

    ``act_bytes`` is the per-sample output size of *each* step (the paper's
    ``M_A``), and ``step_flops`` the per-step forward cost.  ``weight_bytes``
    is the fp32 size of all trainable weights (one copy).
    """

    name: str
    length: int
    act_bytes: int
    weight_bytes: int
    step_flops: int = 0
    input_bytes: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise GraphError("LinearChain length must be >= 1")
        for name in ("act_bytes", "weight_bytes", "step_flops", "input_bytes"):
            at_least(name, getattr(self, name), error=GraphError)

    @property
    def total_act_bytes(self) -> int:
        return self.length * self.act_bytes

    def as_segment_chain(self) -> SegmentChain:
        """Expand into an explicit homogeneous :class:`SegmentChain`."""
        stages = tuple(
            ChainStage(name=f"{self.name}[{i}]", act_bytes=self.act_bytes, flops=self.step_flops)
            for i in range(self.length)
        )
        return SegmentChain(
            name=self.name,
            input_bytes=self.input_bytes,
            stages=stages,
            weight_bytes=self.weight_bytes,
        )


def cut_points(graph: Graph) -> list[str]:
    """Names of nodes whose output is the *only* tensor crossing its cut.

    A node ``n`` at topological position ``i`` is a cut point when every
    edge from positions ``<= i`` into positions ``> i`` originates at ``n``.
    Such nodes are exactly the safe places to checkpoint a DAG as if it
    were a chain (block boundaries in ResNet).  The final node is always a
    cut point.
    """
    graph.infer()
    order = graph.topological_order()
    pos = {name: i for i, name in enumerate(order)}
    # last position at which each node's output is consumed
    last_use = {name: pos[name] for name in order}
    for node in graph.nodes:
        for src in node.inputs:
            last_use[src] = max(last_use[src], pos[node.name])
    cuts: list[str] = []
    for i, name in enumerate(order):
        crossing = [n for n in order[: i + 1] if last_use[n] > i]
        if crossing == [name] or (not crossing and i == len(order) - 1):
            cuts.append(name)
    return cuts


def linearize(graph: Graph, include_inplace: bool = True) -> SegmentChain:
    """Cut a DAG into a :class:`SegmentChain` at its natural cut points.

    Each stage spans the nodes between consecutive cut points; the stage's
    ``act_bytes`` is its boundary tensor, ``interior_bytes`` everything
    produced inside, and ``flops``/``param_bytes`` the segment totals.
    The graph's input node forms the chain input, not a stage.
    """
    specs = graph.infer()
    order = graph.topological_order()
    cuts = cut_points(graph)
    if not cuts:
        raise GraphError(f"graph {graph.name!r} has no cut points")
    sources = [n for n in order if graph.node(n).is_source]
    if len(sources) != 1:
        raise GraphError("linearize requires exactly one input node")
    source = sources[0]

    pos = {name: i for i, name in enumerate(order)}
    stages: list[ChainStage] = []
    prev = pos[source]
    for cut in cuts:
        if pos[cut] <= prev and cut != source:
            continue
        if cut == source:
            continue
        seg_nodes = [n for n in order[prev + 1 : pos[cut] + 1]]
        interior = 0
        flops = 0
        params = 0
        for n in seg_nodes:
            node = graph.node(n)
            assert node.output is not None
            if n != cut and (include_inplace or not node.layer.inplace_capable):
                interior += node.output.nbytes
            in_specs = [specs[s] for s in node.inputs]
            flops += node.layer.flops(in_specs, node.output)
            params += node.layer.trainable_bytes
        stages.append(
            ChainStage(
                name=cut,
                act_bytes=specs[cut].nbytes,
                interior_bytes=interior,
                flops=flops,
                param_bytes=params,
            )
        )
        prev = pos[cut]
    return SegmentChain(
        name=graph.name,
        input_bytes=specs[source].nbytes,
        stages=tuple(stages),
        weight_bytes=graph.trainable_bytes,
        buffer_bytes=graph.buffer_bytes,
    )


def homogenize(graph: Graph, depth: int, name: str | None = None) -> LinearChain:
    """Build the paper's ``LinearResNet``-style homogeneous chain.

    Total trainable weight bytes are preserved; total activation bytes are
    divided evenly across ``depth`` steps (integer division, matching the
    paper's "overall activation weights divided by the depth").
    """
    if depth < 1:
        raise GraphError("depth must be >= 1")
    graph.infer()
    total_act = graph.activation_bytes_per_sample()
    total_flops = graph.total_flops_per_sample()
    input_bytes = 0
    for node in graph.nodes:
        if node.is_source:
            assert node.output is not None
            input_bytes = node.output.nbytes
            break
    return LinearChain(
        name=name or f"Linear{graph.name}",
        length=depth,
        act_bytes=total_act // depth,
        weight_bytes=graph.trainable_bytes,
        step_flops=total_flops // depth,
        input_bytes=input_bytes,
    )
