"""Environmental drift: the world moves, and a frozen teacher goes stale."""

import numpy as np
import pytest

from repro.studentteacher import TeacherModel, ViewpointWorld


def fresh_world(seed=0):
    return ViewpointWorld(num_classes=5, feature_dim=8, rng=np.random.default_rng(seed))


class TestDriftMechanics:
    def test_drift_moves_prototypes(self):
        w = fresh_world()
        before = w.prototypes.copy()
        w.drift(0.3)
        assert not np.allclose(before, w.prototypes)

    def test_norms_preserved(self):
        w = fresh_world()
        w.drift(0.5)
        norms = np.linalg.norm(w.prototypes, axis=1)
        assert np.allclose(norms, 4.0)

    def test_zero_drift_direction_only(self):
        w = fresh_world()
        before = w.prototypes.copy()
        w.drift(0.0)
        assert np.allclose(before, w.prototypes)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fresh_world().drift(-0.1)

    def test_teacher_degrades_under_drift(self):
        """Accumulated drift eventually defeats the frozen teacher (the
        nearest-prototype model is robust to small drifts — the decay
        only bites once prototypes have moved a class-distance)."""
        w = fresh_world(3)
        x, y = w.sample_frontal(200)
        teacher = TeacherModel.fit(x, y)
        before = teacher.accuracy(*w.sample_frontal(200)[:2])
        for _ in range(7):
            w.drift(0.5)
        x2, y2 = w.sample_frontal(200)
        after = teacher.accuracy(x2, y2)
        assert after < before - 0.15

