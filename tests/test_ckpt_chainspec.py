"""ChainSpec construction and invariants."""

import math

import pytest

from repro.checkpointing import ChainSpec
from repro.errors import ScheduleError
from repro.graph import LinearChain


class TestHomogeneous:
    def test_lengths(self):
        spec = ChainSpec.homogeneous(5)
        assert spec.length == 5
        assert len(spec.act_bytes) == 6
        assert spec.is_homogeneous

    def test_baseline_time(self):
        spec = ChainSpec.homogeneous(5, fwd_cost=2.0, bwd_cost=3.0)
        assert spec.baseline_time == 5 * (2.0 + 3.0)

    def test_store_all_bytes_excludes_input(self):
        spec = ChainSpec.homogeneous(4, act_bytes=10)
        assert spec.store_all_bytes == 40

    def test_advance_cost(self):
        spec = ChainSpec.homogeneous(6)
        assert spec.advance_cost(1, 4) == 3.0

    def test_advance_cost_validation(self):
        spec = ChainSpec.homogeneous(4)
        with pytest.raises(ScheduleError):
            spec.advance_cost(3, 3)
        with pytest.raises(ScheduleError):
            spec.advance_cost(0, 9)


class TestValidation:
    def test_empty_chain_rejected(self):
        with pytest.raises(ScheduleError):
            ChainSpec(name="x", act_bytes=(1,), fwd_cost=(), bwd_cost=())

    def test_act_length_mismatch(self):
        with pytest.raises(ScheduleError):
            ChainSpec(name="x", act_bytes=(1, 1), fwd_cost=(1.0, 1.0), bwd_cost=(1.0, 1.0))

    def test_negative_cost_rejected(self):
        with pytest.raises(ScheduleError):
            ChainSpec(name="x", act_bytes=(1, 1), fwd_cost=(-1.0,), bwd_cost=(1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["fwd_cost", "bwd_cost"])
    def test_non_finite_cost_rejected(self, field, bad):
        costs = {"fwd_cost": (1.0, 1.0), "bwd_cost": (1.0, 1.0), field: (bad, 1.0)}
        with pytest.raises(ScheduleError, match="step costs must be finite"):
            ChainSpec("x", (1, 1, 1), **costs)


class TestConstructors:
    def test_from_linear_chain(self):
        chain = LinearChain(name="lin", length=4, act_bytes=7, weight_bytes=0, step_flops=3, input_bytes=2)
        spec = ChainSpec.from_linear_chain(chain)
        assert spec.length == 4
        assert spec.act_bytes == (2, 7, 7, 7, 7)
        assert spec.fwd_cost == (3.0,) * 4
        assert spec.bwd_cost == (3.0,) * 4  # bwd_ratio 1 (paper convention)

    def test_from_linear_chain_bwd_ratio(self):
        chain = LinearChain(name="lin", length=2, act_bytes=1, weight_bytes=0, step_flops=2)
        spec = ChainSpec.from_linear_chain(chain, bwd_ratio=2.0)
        assert spec.bwd_cost == (4.0, 4.0)
