"""Symbolic layer-graph IR: shape inference, parameter and FLOP accounting.

This is the substrate on which the paper's memory tables are computed.
Build a :class:`Graph` (or :class:`Sequential`), run :meth:`Graph.infer`,
then query activation/parameter byte totals, or linearize into a
checkpointable chain with :func:`linearize` / :func:`homogenize`.
"""

from .tensor import TensorSpec, conv2d_output_hw, pool2d_output_hw
from .layer import Layer, ParamSpec
from .layers import (
    Add,
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Identity,
    Input,
    Linear,
    MaxPool2d,
    ReLU,
    Softmax,
)
from .network import Graph, Node, Sequential
from .chain import (
    ChainStage,
    LinearChain,
    SegmentChain,
    cut_points,
    homogenize,
    linearize,
)
from .flops import FlopReport, estimate_step_seconds, flop_report

__all__ = [
    "TensorSpec",
    "conv2d_output_hw",
    "pool2d_output_hw",
    "Layer",
    "ParamSpec",
    "Input",
    "Identity",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Linear",
    "Flatten",
    "Dropout",
    "Add",
    "Concat",
    "GlobalAvgPool",
    "Softmax",
    "Graph",
    "Node",
    "Sequential",
    "ChainStage",
    "SegmentChain",
    "LinearChain",
    "cut_points",
    "linearize",
    "homogenize",
    "FlopReport",
    "flop_report",
    "estimate_step_seconds",
]
