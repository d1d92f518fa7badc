"""MemoryModel: scaling laws and budgets."""

import pytest

from repro.errors import MemoryBudgetError
from repro.memory import MemoryModel, memory_model_for
from repro.units import GB, MB
from repro.zoo import build_resnet


@pytest.fixture(scope="module")
def model18() -> MemoryModel:
    return memory_model_for(lambda s: build_resnet(18, image_size=s), ref_image=224)


class TestScaling:
    def test_reference_size_uses_account(self, model18):
        assert model18.act_bytes(224) == model18.account_ref.act_bytes_per_sample

    def test_quadratic_approximation_close_to_exact(self, model18):
        exact = model18.act_bytes(448, exact=True)
        approx = model18.act_bytes(448, exact=False)
        assert approx == pytest.approx(exact, rel=0.05)

    def test_exact_accounts_conv_rounding(self, model18):
        # 225 is not a multiple of the stem stride: exact > pure quadratic.
        exact = model18.act_bytes(230, exact=True)
        approx = model18.act_bytes(230, exact=False)
        assert exact != approx

    def test_total_decomposition(self, model18):
        total = model18.total_bytes(batch_size=4, image_size=224)
        assert total == model18.fixed_bytes + 4 * model18.act_bytes(224)

    def test_monotone_in_image_size(self, model18):
        sizes = [224, 350, 500]
        totals = [model18.total_bytes(1, s) for s in sizes]
        assert totals == sorted(totals)


class TestBudget:
    def test_fits_2gb_at_batch_1(self, model18):
        assert model18.fits(2 * GB, batch_size=1)

    def test_does_not_fit_at_batch_64(self, model18):
        assert not model18.fits(2 * GB, batch_size=64)

    def test_max_batch_boundary(self, model18):
        k = model18.max_batch(2 * GB)
        assert model18.fits(2 * GB, batch_size=k)
        assert not model18.fits(2 * GB, batch_size=k + 1)

    def test_max_batch_raises_when_nothing_fits(self, model18):
        with pytest.raises(MemoryBudgetError):
            model18.max_batch(100 * MB)

    def test_batch_validation(self, model18):
        with pytest.raises(ValueError):
            model18.total_bytes(batch_size=0)
