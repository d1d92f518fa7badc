"""Symbolic layer-graph IR: shape inference, parameter and FLOP accounting.

This is the substrate on which the paper's memory tables are computed.
Build a :class:`Graph` (or :class:`Sequential`), run :meth:`Graph.infer`,
then query activation/parameter byte totals, or reduce it to the paper's
homogeneous checkpointable chain with :func:`homogenize`.
"""

from .tensor import TensorSpec, conv2d_output_hw, pool2d_output_hw
from .layer import Layer, ParamSpec
from .layers import (
    Add,
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Identity,
    Input,
    Linear,
    MaxPool2d,
    ReLU,
)
from .network import Graph, Node, Sequential
from .chain import LinearChain, homogenize
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
    "AdaptiveAvgPool2d",
    "Linear",
    "Flatten",
    "Dropout",
    "Add",
    "GlobalAvgPool",
    "Graph",
    "Node",
    "Sequential",
    "LinearChain",
    "homogenize",
    "FlopReport",
    "flop_report",
    "estimate_step_seconds",
]
