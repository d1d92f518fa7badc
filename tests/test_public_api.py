"""Public-API smoke coverage: names exported but not directly exercised
elsewhere (convenience builders, presets, low-level helpers)."""

import numpy as np
import pytest

import repro
from repro.autodiff.ops import pad_nchw
from repro.edge import (
    DEVICE_CATALOG,
    JETSON_NANO,
    RASPBERRY_PI_3,
    RASPBERRY_PI_4,
)
from repro.memory import (
    OPTIMIZER_WEIGHT_COPIES,
    PAPER_DEVICE_BUDGET_MB,
    PAPER_IMAGE_SIZES_T2,
)
from repro.units import FLOAT16_BYTES, FLOAT32_BYTES, FLOAT64_BYTES, MB
from repro.zoo import resnet34, resnet101, resnet152


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_subpackages_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"


class TestZooConvenience:
    @pytest.mark.parametrize(
        "builder,params",
        [(resnet34, 21_797_672), (resnet101, 44_549_160), (resnet152, 60_192_808)],
    )
    def test_builders_match_build_resnet(self, builder, params):
        g = builder(image_size=64)
        assert g.trainable_numel == params


class TestDevicePresets:
    def test_catalog_complete(self):
        for dev in (RASPBERRY_PI_3, RASPBERRY_PI_4, JETSON_NANO):
            assert DEVICE_CATALOG[dev.name] is dev

    def test_jetson_gpu_dominates(self):
        assert JETSON_NANO.flops_per_s == JETSON_NANO.gpu_gflops * 1e9

    def test_pi3_smallest_memory(self):
        assert RASPBERRY_PI_3.mem_bytes == min(d.mem_bytes for d in DEVICE_CATALOG.values())


class TestLowLevelOps:
    def test_pad_nchw(self):
        x = np.ones((1, 1, 2, 2))
        padded = pad_nchw(x, 1)
        assert padded.shape == (1, 1, 4, 4)
        assert padded.sum() == 4  # original mass preserved
        assert pad_nchw(x, 0) is x  # no copy when padding is zero


class TestConstants:
    def test_float_widths(self):
        assert (FLOAT16_BYTES, FLOAT32_BYTES, FLOAT64_BYTES) == (2, 4, 8)

    def test_optimizer_copies_map(self):
        assert OPTIMIZER_WEIGHT_COPIES["none"] == 1
        assert OPTIMIZER_WEIGHT_COPIES["adam"] == 4

    def test_paper_constants(self):
        assert PAPER_DEVICE_BUDGET_MB == 2048.0
        assert PAPER_IMAGE_SIZES_T2 == (224, 350, 500, 650, 1100, 1500)
