"""Streaming in-situ adaptation: the online student improves mid-run."""

import numpy as np
import pytest

from repro.autodiff.data import Dataset
from repro.studentteacher import (
    OnlineAdapter,
    OnlineConfig,
    StudentConfig,
    TeacherModel,
    ViewpointWorld,
    harvest_labels,
    track_episode,
    train_student,
)


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    world = ViewpointWorld(num_classes=5, feature_dim=8, rng=rng)
    x_tr, y_tr = world.sample_frontal(200)
    teacher = TeacherModel.fit(x_tr, y_tr)
    episode = world.generate_episode(
        n_subjects=100, frames_per_crossing=20, camera_skew_deg=60.0
    )
    angles = np.linspace(-60, 60, 23)
    x_ev, y_ev, _ = world.sample_at_angles(80, angles)
    return world, teacher, episode, x_ev, y_ev


def run_adapter(setting, cfg=None):
    world, teacher, episode, x_ev, y_ev = setting
    adapter = OnlineAdapter(teacher, 8, 5, cfg or OnlineConfig(), seed=1)
    for frame in episode.frames:
        adapter.process_frame(frame)
    adapter.finalize()
    return adapter, x_ev, y_ev


class TestOnlineAdapter:
    def test_final_accuracy_beats_teacher(self, setting):
        world, teacher, episode, x_ev, y_ev = setting
        adapter, x_ev, y_ev = run_adapter(setting)
        assert adapter.accuracy(x_ev, y_ev) > teacher.accuracy(x_ev, y_ev) + 0.1

    def test_accuracy_improves_over_stream(self, setting):
        world, teacher, episode, x_ev, y_ev = setting
        adapter = OnlineAdapter(teacher, 8, 5, OnlineConfig(), seed=1)
        mid = len(episode.frames) // 4
        for frame in episode.frames[:mid]:
            adapter.process_frame(frame)
        early = adapter.accuracy(x_ev, y_ev)
        for frame in episode.frames[mid:]:
            adapter.process_frame(frame)
        adapter.finalize()
        late = adapter.accuracy(x_ev, y_ev)
        assert late > early

    def test_streaming_matches_batch_student(self, setting):
        """Adaptation need not wait for the episode: the online student
        beats the teacher by the stream's midpoint and ends within five
        points of a batch student trained on the same episode."""
        world, teacher, episode, x_ev, y_ev = setting
        adapter = OnlineAdapter(teacher, 8, 5, OnlineConfig(), seed=1)
        checkpoints = []
        for i, frame in enumerate(episode.frames):
            adapter.process_frame(frame)
            if i % 50 == 0:
                checkpoints.append(adapter.accuracy(x_ev, y_ev))
        adapter.finalize()
        checkpoints.append(adapter.accuracy(x_ev, y_ev))
        harvest = harvest_labels(episode, track_episode(episode), teacher)
        batch = train_student(Dataset(harvest.x, harvest.y), 5, StudentConfig(epochs=20))
        batch_acc = float((batch.net.forward(x_ev).argmax(axis=1) == y_ev).mean())
        assert checkpoints[len(checkpoints) // 2] > teacher.accuracy(x_ev, y_ev)
        assert checkpoints[-1] > batch_acc - 0.05

    def test_buffer_grows_and_stays_pure(self, setting):
        adapter, _, _ = run_adapter(setting)
        assert len(adapter.buffer) > 500
        assert adapter.buffer_purity > 0.9

    def test_snapshots_monotone(self, setting):
        adapter, _, _ = run_adapter(setting)
        assert adapter.snapshots
        sizes = [s.buffer_size for s in adapter.snapshots]
        assert sizes == sorted(sizes)
        updates = [s.updates for s in adapter.snapshots]
        assert updates == list(range(1, len(updates) + 1))

    def test_buffer_bounded(self, setting):
        cfg = OnlineConfig(buffer_max=300)
        adapter, _, _ = run_adapter(setting, cfg)
        assert len(adapter.buffer) <= 300

    def test_strict_confidence_harvests_less(self, setting):
        lax, _, _ = run_adapter(setting, OnlineConfig(confidence_threshold=0.5))
        strict, _, _ = run_adapter(setting, OnlineConfig(confidence_threshold=0.999))
        assert len(strict.buffer) <= len(lax.buffer)

    def test_finalize_flushes_open_tracks(self, setting):
        world, teacher, episode, _, _ = setting
        adapter = OnlineAdapter(teacher, 8, 5, OnlineConfig(), seed=1)
        for frame in episode.frames:
            adapter.process_frame(frame)
        before = len(adapter.buffer)
        adapter.finalize()
        assert len(adapter.buffer) >= before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OnlineConfig(update_every=0)
        with pytest.raises(ValueError):
            OnlineConfig(buffer_max=0)
