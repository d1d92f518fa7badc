"""Concrete symbolic layers.

These mirror the layer set needed by ResNet/VGG-class vision models:
convolution, batch norm, ReLU, max pooling, adaptive and global average
pooling, linear, flatten, dropout, residual add, and an identity.
All shape arithmetic follows PyTorch conventions so model summaries line up
with the architectures the paper measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ShapeError
from .layer import Layer, ParamSpec
from .tensor import TensorSpec, conv2d_output_hw, pool2d_output_hw

__all__ = [
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
]


def _pair(v: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    return (int(v[0]), int(v[1]))


@dataclass
class Input(Layer):
    """Source node carrying the per-sample input spec (e.g. 3x224x224)."""

    spec: TensorSpec = field(default_factory=lambda: TensorSpec((3, 224, 224)))

    def __post_init__(self) -> None:
        self.arity = 0

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        return self.spec


@dataclass
class Identity(Layer):
    """Pass-through node (used for skip connections in the DAG)."""

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        return inputs[0]


@dataclass
class Conv2d(Layer):
    """2-D convolution over CHW inputs."""

    in_channels: int = 3
    out_channels: int = 64
    kernel_size: int | tuple[int, int] = 3
    stride: int | tuple[int, int] = 1
    padding: int | tuple[int, int] = 0
    dilation: int | tuple[int, int] = 1
    groups: int = 1
    bias: bool = False

    def __post_init__(self) -> None:
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError("channels must be divisible by groups")

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        c, h, w = self._expect_chw(inputs[0])
        if c != self.in_channels:
            raise ShapeError(
                f"Conv2d {self.name!r}: expected {self.in_channels} channels, got {c}"
            )
        oh, ow = conv2d_output_hw(
            h, w, _pair(self.kernel_size), _pair(self.stride), _pair(self.padding), _pair(self.dilation)
        )
        return inputs[0].with_shape((self.out_channels, oh, ow))

    def params(self) -> list[ParamSpec]:
        kh, kw = _pair(self.kernel_size)
        out = [
            ParamSpec(
                "weight",
                (self.out_channels, self.in_channels // self.groups, kh, kw),
            )
        ]
        if self.bias:
            out.append(ParamSpec("bias", (self.out_channels,)))
        return out

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        kh, kw = _pair(self.kernel_size)
        _, oh, ow = output.shape
        macs = oh * ow * self.out_channels * (self.in_channels // self.groups) * kh * kw
        return 2 * macs


@dataclass
class BatchNorm2d(Layer):
    """Batch normalization: affine params + running-stat buffers."""

    num_features: int = 64
    affine: bool = True
    track_running_stats: bool = True

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        c, _, _ = self._expect_chw(inputs[0])
        if c != self.num_features:
            raise ShapeError(
                f"BatchNorm2d {self.name!r}: expected {self.num_features} channels, got {c}"
            )
        return inputs[0]

    def params(self) -> list[ParamSpec]:
        out: list[ParamSpec] = []
        if self.affine:
            out += [
                ParamSpec("weight", (self.num_features,)),
                ParamSpec("bias", (self.num_features,)),
            ]
        if self.track_running_stats:
            out += [
                ParamSpec("running_mean", (self.num_features,), trainable=False),
                ParamSpec("running_var", (self.num_features,), trainable=False),
            ]
        return out

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        return 2 * output.numel


@dataclass
class ReLU(Layer):
    """Rectified linear unit (in-place capable)."""

    def __post_init__(self) -> None:
        self.inplace_capable = True

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        return inputs[0]

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        return output.numel


@dataclass
class MaxPool2d(Layer):
    """Max pooling over CHW inputs."""

    kernel_size: int | tuple[int, int] = 2
    stride: int | tuple[int, int] | None = None
    padding: int | tuple[int, int] = 0
    ceil_mode: bool = False

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        c, h, w = self._expect_chw(inputs[0])
        stride = self.stride if self.stride is not None else self.kernel_size
        oh, ow = pool2d_output_hw(
            h, w, _pair(self.kernel_size), _pair(stride), _pair(self.padding), self.ceil_mode
        )
        return inputs[0].with_shape((c, oh, ow))

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        kh, kw = _pair(self.kernel_size)
        return output.numel * kh * kw


@dataclass
class AdaptiveAvgPool2d(Layer):
    """Adaptive average pooling to a fixed output size (ResNet head)."""

    output_size: int | tuple[int, int] = 1

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        c, h, w = self._expect_chw(inputs[0])
        oh, ow = _pair(self.output_size)
        if oh > h or ow > w:
            raise ShapeError(
                f"AdaptiveAvgPool2d {self.name!r}: target {oh}x{ow} larger than input {h}x{w}"
            )
        return inputs[0].with_shape((c, oh, ow))

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        return inputs[0].numel


@dataclass
class Linear(Layer):
    """Fully connected layer over flat inputs."""

    in_features: int = 512
    out_features: int = 1000
    bias: bool = True

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        spec = inputs[0]
        if spec.rank != 1:
            raise ShapeError(
                f"Linear {self.name!r} expects flat input, got {spec.shape}; add Flatten"
            )
        if spec.shape[0] != self.in_features:
            raise ShapeError(
                f"Linear {self.name!r}: expected {self.in_features} features, got {spec.shape[0]}"
            )
        return spec.with_shape((self.out_features,))

    def params(self) -> list[ParamSpec]:
        out = [ParamSpec("weight", (self.out_features, self.in_features))]
        if self.bias:
            out.append(ParamSpec("bias", (self.out_features,)))
        return out

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        return 2 * self.in_features * self.out_features


@dataclass
class Flatten(Layer):
    """Collapse CHW (or any rank) to a flat vector."""

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        return inputs[0].with_shape((inputs[0].numel,))


@dataclass
class Dropout(Layer):
    """Dropout; shape-preserving, stores a mask during training."""

    p: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ShapeError(f"dropout p must be in [0,1), got {self.p}")

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        return inputs[0]


@dataclass
class Add(Layer):
    """Elementwise residual addition of two equal-shaped tensors."""

    def __post_init__(self) -> None:
        self.arity = 2

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        a, b = inputs
        if a.shape != b.shape:
            raise ShapeError(f"Add {self.name!r}: mismatched shapes {a.shape} vs {b.shape}")
        return a

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        return output.numel


@dataclass
class GlobalAvgPool(Layer):
    """Average over all spatial positions, producing a flat C vector."""

    def infer(self, inputs: list[TensorSpec]) -> TensorSpec:
        self._expect_arity(inputs)
        c, _, _ = self._expect_chw(inputs[0])
        return inputs[0].with_shape((c,))

    def flops(self, inputs: list[TensorSpec], output: TensorSpec) -> int:
        return inputs[0].numel
