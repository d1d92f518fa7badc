"""Symbolic layer shape inference, parameter declarations and FLOPs."""

import pytest

from repro.errors import ShapeError
from repro.graph import (
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
    TensorSpec,
)

CHW = TensorSpec((16, 8, 8))


class TestConv2d:
    def test_shape(self):
        layer = Conv2d(in_channels=16, out_channels=32, kernel_size=3, padding=1)
        assert layer.infer([CHW]).shape == (32, 8, 8)

    def test_param_count_no_bias(self):
        layer = Conv2d(in_channels=16, out_channels=32, kernel_size=3, bias=False)
        assert layer.trainable_numel == 32 * 16 * 9

    def test_param_count_with_bias(self):
        layer = Conv2d(in_channels=16, out_channels=32, kernel_size=3, bias=True)
        assert layer.trainable_numel == 32 * 16 * 9 + 32

    def test_grouped_params(self):
        layer = Conv2d(in_channels=16, out_channels=32, kernel_size=3, groups=4)
        assert layer.trainable_numel == 32 * 4 * 9

    def test_groups_must_divide(self):
        with pytest.raises(ShapeError):
            Conv2d(in_channels=16, out_channels=30, kernel_size=3, groups=4)

    def test_channel_mismatch_raises(self):
        layer = Conv2d(in_channels=8, out_channels=32, kernel_size=3)
        with pytest.raises(ShapeError):
            layer.infer([CHW])

    def test_flops_are_2x_macs(self):
        layer = Conv2d(in_channels=16, out_channels=32, kernel_size=3, padding=1)
        out = layer.infer([CHW])
        assert layer.flops([CHW], out) == 2 * 8 * 8 * 32 * 16 * 9

    def test_flat_input_raises(self):
        with pytest.raises(ShapeError):
            Conv2d(in_channels=16, out_channels=8, kernel_size=1).infer([TensorSpec((16,))])


class TestBatchNorm2d:
    def test_preserves_shape(self):
        assert BatchNorm2d(num_features=16).infer([CHW]) == CHW

    def test_param_split_trainable_vs_buffers(self):
        layer = BatchNorm2d(num_features=16)
        assert layer.trainable_numel == 32  # gamma + beta
        assert layer.buffer_numel == 32  # running mean + var

    def test_no_affine(self):
        layer = BatchNorm2d(num_features=16, affine=False)
        assert layer.trainable_numel == 0
        assert layer.buffer_numel == 32

    def test_wrong_channels(self):
        with pytest.raises(ShapeError):
            BatchNorm2d(num_features=8).infer([CHW])


class TestPooling:
    def test_maxpool_default_stride(self):
        out = MaxPool2d(kernel_size=2).infer([CHW])
        assert out.shape == (16, 4, 4)

    def test_maxpool_explicit_stride(self):
        out = MaxPool2d(kernel_size=3, stride=2, padding=1).infer([CHW])
        assert out.shape == (16, 4, 4)

    def test_adaptive_to_one(self):
        out = AdaptiveAvgPool2d(output_size=1).infer([CHW])
        assert out.shape == (16, 1, 1)

    def test_adaptive_upscale_rejected(self):
        with pytest.raises(ShapeError):
            AdaptiveAvgPool2d(output_size=16).infer([CHW])

    def test_global_avg_pool_flattens(self):
        assert GlobalAvgPool().infer([CHW]).shape == (16,)


class TestLinearAndFriends:
    def test_linear_shape_and_params(self):
        layer = Linear(in_features=64, out_features=10)
        assert layer.infer([TensorSpec((64,))]).shape == (10,)
        assert layer.trainable_numel == 64 * 10 + 10

    def test_linear_rejects_chw(self):
        with pytest.raises(ShapeError):
            Linear(in_features=64, out_features=10).infer([CHW])

    def test_linear_feature_mismatch(self):
        with pytest.raises(ShapeError):
            Linear(in_features=32, out_features=10).infer([TensorSpec((64,))])

    def test_flatten(self):
        assert Flatten().infer([CHW]).shape == (16 * 8 * 8,)

    def test_dropout_validates_p(self):
        with pytest.raises(ShapeError):
            Dropout(p=1.0)

    def test_relu_is_inplace_capable(self):
        assert ReLU().inplace_capable
        assert not Conv2d(in_channels=1, out_channels=1, kernel_size=1).inplace_capable


class TestMultiInput:
    def test_add_requires_equal_shapes(self):
        add = Add()
        assert add.infer([CHW, CHW]) == CHW
        with pytest.raises(ShapeError):
            add.infer([CHW, TensorSpec((16, 4, 4))])

    def test_add_arity(self):
        with pytest.raises(ShapeError):
            Add().infer([CHW])

    def test_identity_and_input(self):
        assert Identity().infer([CHW]) == CHW
        assert Input(spec=CHW).infer([]) == CHW
