"""Online (streaming) in-situ adaptation.

The batch pipeline (:mod:`~repro.studentteacher.pipeline`) harvests a
whole episode, then trains.  A deployed node works incrementally: frames
arrive one at a time, tracks close as subjects leave the view, each
closed track may contribute auto-labelled samples to a bounded replay
buffer, and the student takes a few optimizer steps whenever enough new
data has accumulated.  :class:`OnlineAdapter` implements exactly that
loop and records the accuracy trajectory — the "model improves while the
node runs" behaviour Section III envisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Momentum, softmax_cross_entropy
from ..errors import ConfigError, at_least
from .harvest import HarvestedSample
from .student import StudentConfig, build_student
from .teacher import TeacherModel
from .tracker import Tracker
from .world import Frame

__all__ = ["OnlineConfig", "OnlineSnapshot", "OnlineAdapter"]


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the streaming loop."""

    update_every: int = 50  # new samples between training bursts
    steps_per_update: int = 20
    batch_size: int = 16
    buffer_max: int = 5_000
    confidence_threshold: float = 0.9
    min_track_length: int = 3
    student: StudentConfig = field(default_factory=StudentConfig)

    def __post_init__(self) -> None:
        for name in ("update_every", "steps_per_update", "batch_size", "buffer_max",
                     "min_track_length"):
            at_least(name, getattr(self, name), 1)
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ConfigError("confidence_threshold must be in (0, 1]")


@dataclass(frozen=True)
class OnlineSnapshot:
    """State after one training burst."""

    t: int
    buffer_size: int
    tracks_closed: int
    updates: int


class OnlineAdapter:
    """Streaming tracker → harvester → replay-buffer student trainer."""

    def __init__(
        self,
        teacher: TeacherModel,
        feature_dim: int,
        num_classes: int,
        cfg: OnlineConfig = OnlineConfig(),
        seed: int = 0,
    ) -> None:
        self.teacher = teacher
        self.cfg = cfg
        self.num_classes = num_classes
        self.tracker = Tracker()
        self.student = build_student(feature_dim, num_classes, cfg.student)
        self.optimizer = Momentum(self.student.layers, lr=cfg.student.lr)
        self.rng = np.random.default_rng(seed)
        self.buffer: list[HarvestedSample] = []
        self.snapshots: list[OnlineSnapshot] = []
        self._open: dict[int, list] = {}  # track_id -> [(t, detection)]
        self._last_seen: dict[int, int] = {}
        self._new_since_update = 0
        self._tracks_closed = 0
        self._updates = 0
        self._now = 0

    # -- streaming interface --------------------------------------------
    def process_frame(self, frame: Frame) -> None:
        """Ingest one frame: track, close stale tracks, maybe train."""
        self._now = frame.t
        for a in self.tracker.step(frame):
            det = frame.detections[a.det_index]
            self._open.setdefault(a.track_id, []).append((frame.t, det))
            self._last_seen[a.track_id] = frame.t
        stale = [
            tid
            for tid, last in self._last_seen.items()
            if frame.t - last > self.tracker.max_misses
        ]
        for tid in stale:
            self._close_track(tid)
        if self._new_since_update >= self.cfg.update_every:
            self._train_burst()

    def finalize(self) -> None:
        """Close all open tracks and run a final training burst."""
        for tid in list(self._open):
            self._close_track(tid)
        if self.buffer:
            self._train_burst()

    # -- internals --------------------------------------------------------
    def _close_track(self, track_id: int) -> None:
        members = self._open.pop(track_id, [])
        self._last_seen.pop(track_id, None)
        if len(members) < self.cfg.min_track_length:
            return
        self._tracks_closed += 1
        members.sort(key=lambda td: td[0])
        dets = [d for _, d in members]
        feats = np.stack([d.features for d in dets])
        preds, confs = self.teacher.predict(feats)
        if confs[-1] < self.cfg.confidence_threshold:
            return
        label = int(preds[-1])  # the paper's track-end rule
        for d in dets:
            self.buffer.append(
                HarvestedSample(
                    features=d.features,
                    label=label,
                    angle_deg=d.angle_deg,
                    track_id=track_id,
                    truth_class=d.truth_class,
                )
            )
            self._new_since_update += 1
        if len(self.buffer) > self.cfg.buffer_max:
            # Reservoir-ish eviction: drop random old samples.
            excess = len(self.buffer) - self.cfg.buffer_max
            keep = self.rng.permutation(len(self.buffer))[excess:]
            self.buffer = [self.buffer[i] for i in sorted(keep)]

    def _train_burst(self) -> None:
        if not self.buffer:
            return
        x = np.stack([s.features for s in self.buffer])
        y = np.asarray([s.label for s in self.buffer], dtype=np.int64)
        n = len(self.buffer)
        for _ in range(self.cfg.steps_per_update):
            idx = self.rng.integers(0, n, size=min(self.cfg.batch_size, n))
            loss, grads, _ = self.student.train_step(x[idx], y[idx], softmax_cross_entropy)
            self.optimizer.step(grads)
        self._updates += 1
        self._new_since_update = 0
        self.snapshots.append(
            OnlineSnapshot(
                t=self._now,
                buffer_size=len(self.buffer),
                tracks_closed=self._tracks_closed,
                updates=self._updates,
            )
        )

    # -- evaluation ---------------------------------------------------------
    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Current student accuracy on held-out data."""
        return float((self.student.forward(x).argmax(axis=1) == y).mean())

    @property
    def buffer_purity(self) -> float:
        """Fraction of buffered labels matching hidden ground truth."""
        if not self.buffer:
            return 1.0
        return sum(s.label == s.truth_class for s in self.buffer) / len(self.buffer)
