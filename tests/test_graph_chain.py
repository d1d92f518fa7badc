"""Homogenization into the paper's LinearChain."""

import pytest

from repro.errors import GraphError
from repro.graph import LinearChain, homogenize
from repro.zoo import build_resnet, simple_cnn


class TestHomogenize:
    def test_paper_linear_resnet_conventions(self):
        g = build_resnet(18, image_size=64)
        chain = homogenize(g, depth=18)
        assert chain.length == 18
        assert chain.weight_bytes == g.trainable_bytes
        total = g.activation_bytes_per_sample()
        assert chain.act_bytes == total // 18

    def test_depth_validation(self):
        g = simple_cnn(image_size=16)
        with pytest.raises(GraphError):
            homogenize(g, depth=0)

class TestLinearChainValidation:
    def test_rejects_bad_length(self):
        with pytest.raises(GraphError):
            LinearChain(name="x", length=0, act_bytes=1, weight_bytes=1)

    def test_rejects_negative_bytes(self):
        with pytest.raises(GraphError):
            LinearChain(name="x", length=1, act_bytes=-1, weight_bytes=1)

    def test_total_act(self):
        c = LinearChain(name="x", length=7, act_bytes=3, weight_bytes=0)
        assert c.total_act_bytes == 21
