"""The paper's homogeneous chain view of a network graph.

Checkpointing algorithms (Revolve, ``checkpoint_sequential``, ...) operate
on a *chain*: a sequence of steps ``F_1 .. F_l`` where step ``i`` consumes
exactly the output of step ``i-1``.  The paper analyses an idealized
homogeneous version of each network, ``LinearResNet_x``: same total weight
memory, total activation memory divided evenly over the nominal depth
``x``.  :func:`homogenize` builds that :class:`LinearChain`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GraphError, at_least
from .network import Graph

__all__ = ["homogenize", "LinearChain"]


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
