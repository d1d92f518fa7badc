"""Graph export: Graphviz DOT and machine-readable node listings.

``to_dot`` produces a rendering-ready DOT digraph (activation sizes on
edges, parameter counts in node labels); ``to_records`` produces plain
dicts for dataframes/JSON.  Neither requires any external dependency.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigError
from ..units import humanize_bytes
from .network import Graph

__all__ = ["to_dot", "to_records"]


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(graph: Graph, rankdir: str = "TB") -> str:
    """Render ``graph`` as a Graphviz DOT digraph.

    Nodes show layer kind and trainable-parameter count; edges carry the
    per-sample byte size of the tensor flowing along them.
    """
    if rankdir not in ("TB", "LR"):
        raise ConfigError("rankdir must be 'TB' or 'LR'")
    graph.infer()
    lines = [f"digraph {_quote(graph.name)} {{", f"  rankdir={rankdir};"]
    lines.append('  node [shape=box, fontsize=10];')
    for node in graph.nodes:
        kind = type(node.layer).__name__
        nparam = node.layer.trainable_numel
        label = f"{node.name}\\n{kind}"
        if nparam:
            label += f"\\n{nparam:,} params"
        shape = ' style=filled fillcolor="#e8f0fe"' if node.is_source else ""
        lines.append(f"  {_quote(node.name)} [label={_quote(label)}{shape}];")
    for node in graph.nodes:
        assert node.output is not None
        for src in node.inputs:
            size = humanize_bytes(graph.node(src).output.nbytes)  # type: ignore[union-attr]
            lines.append(
                f"  {_quote(src)} -> {_quote(node.name)} [label={_quote(size)}];"
            )
    lines.append("}")
    return "\n".join(lines)


def to_records(graph: Graph) -> list[dict[str, Any]]:
    """One dict per node: name, kind, inputs, output shape/bytes, params."""
    graph.infer()
    records = []
    for node in graph.nodes:
        assert node.output is not None
        records.append(
            {
                "name": node.name,
                "kind": type(node.layer).__name__,
                "inputs": list(node.inputs),
                "output_shape": list(node.output.shape),
                "output_bytes": node.output.nbytes,
                "trainable_params": node.layer.trainable_numel,
                "buffer_params": node.layer.buffer_numel,
            }
        )
    return records
