"""Extended zoo experiment: architecture-generic conclusions."""

import math

import pytest

from repro.experiments import extended_model_rows, extended_model_table


@pytest.fixture(scope="module")
def rows():
    return extended_model_rows()


def by(rows, model, batch):
    return next(r for r in rows if r.model == model and r.batch_size == batch)


class TestExtendedRows:
    def test_grid_complete(self, rows):
        assert len(rows) == 3 * 4

    def test_vgg_impossible_on_2gb(self, rows):
        """VGG-16's 4-copy fixed cost alone exceeds 2 GB: no chain
        checkpointing strategy can train it at any batch size."""
        for batch in (1, 8, 32, 64):
            r = by(rows, "VGG16", batch)
            assert r.strategy == "impossible"
            assert math.isinf(r.rho)
            assert r.fixed_mb > 2048

    def test_mobilenet_params_small_activations_large(self, rows):
        m = by(rows, "MobileNetV2", 1)
        r = by(rows, "ResNet18", 1)
        assert m.weight_mb < r.weight_mb / 3
        assert m.act_mb_per_sample > 2 * r.act_mb_per_sample

    def test_mobilenet_needs_checkpointing_at_batch_32(self, rows):
        m = by(rows, "MobileNetV2", 32)
        assert m.strategy == "revolve"
        assert 1.0 < m.rho < 1.5
        assert m.planned_mb <= 2048
        assert by(rows, "MobileNetV2", 64).rho < 1.5

    def test_resnet18_crosses_at_batch_64(self, rows):
        assert by(rows, "ResNet18", 32).strategy == "store_all"
        assert by(rows, "ResNet18", 64).strategy == "revolve"

    def test_store_all_values_match_account(self, rows):
        r = by(rows, "ResNet18", 8)
        assert r.store_all_mb == pytest.approx(r.fixed_mb + 8 * r.act_mb_per_sample, rel=1e-6)

    def test_planned_never_exceeds_budget(self, rows):
        for r in rows:
            if r.strategy != "impossible":
                assert r.planned_mb <= 2048 + 1


def test_table_renders():
    text = extended_model_table().render()
    assert "MobileNetV2@32" in text
    assert "impossible" in text
