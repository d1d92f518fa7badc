"""Mixed/reduced-precision memory transforms."""

import pytest

from repro.memory import account, cast_account, mixed_precision_account
from repro.zoo import build_resnet


@pytest.fixture(scope="module")
def fp32():
    return account(build_resnet(18, image_size=64))


class TestCast:
    def test_fp16_halves_everything(self, fp32):
        half = cast_account(fp32)
        assert half.fixed_bytes == pytest.approx(fp32.fixed_bytes / 2, abs=2)
        assert half.act_bytes_per_sample == pytest.approx(
            fp32.act_bytes_per_sample / 2, abs=2
        )
        assert half.weight_bytes == pytest.approx(fp32.weight_bytes / 2, abs=2)

    def test_fp64_doubles(self, fp32):
        double = cast_account(fp32, weight_bytes_per_elem=8, act_bytes_per_elem=8)
        assert double.fixed_bytes == pytest.approx(2 * fp32.fixed_bytes, abs=2)

    def test_asymmetric_cast(self, fp32):
        mixed = cast_account(fp32, weight_bytes_per_elem=4, act_bytes_per_elem=2)
        assert mixed.fixed_bytes == fp32.fixed_bytes
        assert mixed.act_bytes_per_sample < fp32.act_bytes_per_sample

    def test_policy_name_tagged(self, fp32):
        assert "cast" in cast_account(fp32).policy

    def test_validation(self, fp32):
        with pytest.raises(ValueError):
            cast_account(fp32, weight_bytes_per_elem=0)


class TestMixedPrecision:
    def test_activations_halve(self, fp32):
        amp = mixed_precision_account(fp32)
        assert amp.act_bytes_per_sample == fp32.act_bytes_per_sample // 2

    def test_fixed_shrinks_only_modestly(self, fp32):
        """Master weights + optimizer state stay fp32: fixed cost drops
        by exactly half a weight copy (~12% under the 4-copy policy)."""
        amp = mixed_precision_account(fp32)
        expected = fp32.fixed_bytes - fp32.weight_bytes + fp32.weight_bytes // 2
        assert amp.fixed_bytes == expected
        assert 0.85 < amp.fixed_bytes / fp32.fixed_bytes < 0.92

    def test_total_ordering(self, fp32):
        """pure fp16 < AMP < fp32 at any batch size."""
        amp = mixed_precision_account(fp32)
        half = cast_account(fp32)
        for k in (1, 8, 32):
            assert half.total_bytes(k) < amp.total_bytes(k) < fp32.total_bytes(k)

    def test_checkpointing_still_dominates_batch_scaling(self):
        """AMP halves the slope; checkpointing removes (l-c)/l of it.
        Where activations dominate (full 224 px images, batch 8),
        checkpointed fp32 already undercuts AMP store-all."""
        from repro.checkpointing import memory_for_slots

        full = account(build_resnet(18, image_size=224))
        amp = mixed_precision_account(full)
        l = 18
        slot = 8 * full.act_bytes_per_sample / l
        ckpt_fp32 = memory_for_slots(4, full.fixed_bytes, slot)
        assert ckpt_fp32 < amp.total_bytes(8)

    def test_validation(self, fp32):
        with pytest.raises(ValueError):
            mixed_precision_account(fp32, weight_copies=0)


def test_precision_and_checkpointing_compose():
    """ResNet-50 at batch 8: fp32 / AMP / fp16 x store-all / revolve c=5.

    Each lever orders memory on its own, the two compose (fp16 + revolve
    is the global minimum), and checkpointed fp32 undercuts store-all
    AMP — precision alone is no substitute for checkpointing.
    """
    from repro.checkpointing import memory_for_slots
    from repro.experiments import memory_models

    batch, depth = 8, 50
    full = memory_models()[depth].account_ref
    rows = {}
    for name, acct in (
        ("fp32", full),
        ("amp", mixed_precision_account(full)),
        ("fp16", cast_account(full)),
    ):
        slot = batch * acct.act_bytes_per_sample / depth
        rows[(name, "store_all")] = acct.total_bytes(batch)
        rows[(name, "revolve_c5")] = memory_for_slots(5, acct.fixed_bytes, slot)

    for strat in ("store_all", "revolve_c5"):
        assert rows[("fp16", strat)] < rows[("amp", strat)] < rows[("fp32", strat)]
    for prec in ("fp32", "amp", "fp16"):
        assert rows[(prec, "revolve_c5")] < rows[(prec, "store_all")]
    assert rows[("fp16", "revolve_c5")] == min(rows.values())
    assert rows[("fp32", "revolve_c5")] < rows[("amp", "store_all")]
