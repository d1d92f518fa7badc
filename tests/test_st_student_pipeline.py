"""Student training and the end-to-end viewpoint pipeline."""

import numpy as np
import pytest

from repro.autodiff.data import Dataset
from repro.edge import ODROID_XU4, ImageStore
from repro.studentteacher import (
    PipelineConfig,
    StudentConfig,
    build_student,
    run_pipeline,
    train_student,
)


@pytest.fixture(scope="module")
def pipeline_result():
    cfg = PipelineConfig(
        n_subjects=80,
        camera_skew_deg=60.0,
        angle_bins=(15.0, 30.0, 45.0, 60.0),
        student=StudentConfig(epochs=20),
        seed=0,
    )
    return run_pipeline(cfg)


class TestStudent:
    def test_builder_shapes(self):
        net = build_student(8, 5, StudentConfig(hidden=16, depth=2))
        assert len(net) == 2 * 2 + 1
        out = net.forward(np.zeros((3, 8)))
        assert out.shape == (3, 5)

    def test_training_learns_blobs(self):
        rng = np.random.default_rng(0)
        from repro.autodiff import gaussian_blobs

        data = gaussian_blobs(40, 3, 6, rng, spread=0.5, separation=6.0)
        model = train_student(data, 3, StudentConfig(epochs=20, seed=1))
        assert model.accuracy(data.x, data.y) > 0.95
        assert model.losses[-1] < model.losses[0]

    def test_checkpointed_training_matches_storeall(self):
        """rho-limited (checkpointed) training follows the same trajectory
        as store-all training — gradients are identical by construction."""
        rng = np.random.default_rng(0)
        from repro.autodiff import gaussian_blobs

        data = gaussian_blobs(20, 3, 6, rng)
        plain = train_student(data, 3, StudentConfig(epochs=5, seed=2, rho=None))
        ckpt = train_student(data, 3, StudentConfig(epochs=5, seed=2, rho=1.5))
        assert np.allclose(plain.losses, ckpt.losses, rtol=1e-12)

    def test_checkpointed_peak_not_higher(self):
        rng = np.random.default_rng(0)
        from repro.autodiff import gaussian_blobs

        data = gaussian_blobs(30, 3, 6, rng)
        plain = train_student(data, 3, StudentConfig(epochs=2, seed=2, depth=6, rho=None))
        ckpt = train_student(data, 3, StudentConfig(epochs=2, seed=2, depth=6, rho=2.0))
        assert ckpt.peak_bytes <= plain.peak_bytes


class TestPipeline:
    def test_teacher_frontal_near_perfect(self, pipeline_result):
        assert pipeline_result.teacher_frontal_accuracy > 0.95

    def test_viewpoint_gap_exists(self, pipeline_result):
        """Teacher accuracy at the most skewed bin is far below frontal."""
        worst_bin = max(pipeline_result.teacher_by_angle)
        assert pipeline_result.teacher_by_angle[worst_bin] < 0.5

    def test_student_recovers_skew(self, pipeline_result):
        """The paper's claimed mechanism works: the student beats the
        teacher at skewed angles by a wide margin."""
        assert pipeline_result.skew_recovery > 0.3
        worst_bin = max(pipeline_result.student_by_angle)
        assert pipeline_result.student_by_angle[worst_bin] > 0.7

    def test_student_does_not_sacrifice_frontal(self, pipeline_result):
        first_bin = min(pipeline_result.student_by_angle)
        assert pipeline_result.student_by_angle[first_bin] > 0.85

    def test_harvest_nontrivial(self, pipeline_result):
        assert len(pipeline_result.harvest) > 200
        assert pipeline_result.harvest.label_purity > 0.7

    def test_paper_section3_claims(self, pipeline_result):
        """The teacher collapses at 60 degrees and the student recovers
        most of it; label propagation yields "tens of images" per
        identification; the harvest fits the ODROID's card trivially."""
        res = pipeline_result
        assert res.teacher_by_angle[60.0] < 0.4
        assert res.student_by_angle[60.0] > 0.8
        assert res.skew_recovery > 0.4
        assert len(res.harvest) / max(1, res.harvest.tracks_labelled) >= 10
        assert ImageStore(capacity_bytes=ODROID_XU4.storage_bytes).fits(len(res.harvest))

    def test_storage_sized(self, pipeline_result):
        assert pipeline_result.storage_bytes_needed == len(pipeline_result.harvest) * 10 * 1024

    def test_summary_renders(self, pipeline_result):
        text = pipeline_result.summary()
        assert "teacher" in text
        assert "student" in text
