"""Synthetic viewpoint world (the paper's Section III scenario).

A fixed camera watches subjects cross its field of view.  Each subject
belongs to one of ``num_classes`` classes with a prototype feature vector;
what the camera *observes* for a subject at viewpoint angle θ is the
prototype transformed by a θ-dependent distortion (a rotation in feature
space plus attenuation) — the formal core of the viewpoint problem: a
classifier fit at θ ≈ 0 (frontal) degrades as |θ| grows.

As a subject walks across the frame its relative angle sweeps through a
range that touches near-frontal at one end — exactly the paper's premise
that "the teacher model correctly identifies it in the last frame",
enabling label propagation along the track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, at_least, positive

__all__ = ["Detection", "Frame", "TrackTruth", "Episode", "ViewpointWorld"]


@dataclass(frozen=True)
class Detection:
    """One detected subject in one frame.

    ``truth_*`` fields are hidden ground truth used only for evaluation —
    the pipeline (teacher/tracker/harvester) never reads them to make
    decisions.
    """

    position: tuple[float, float]
    features: np.ndarray
    angle_deg: float
    truth_class: int
    truth_track: int


@dataclass(frozen=True)
class Frame:
    """All detections at one time step."""

    t: int
    detections: tuple[Detection, ...]


@dataclass(frozen=True)
class TrackTruth:
    """Ground truth for one subject's crossing."""

    track_id: int
    cls: int
    start_t: int
    end_t: int


@dataclass(frozen=True)
class Episode:
    """A generated scene: frames plus ground-truth tracks."""

    frames: tuple[Frame, ...]
    tracks: tuple[TrackTruth, ...]

    @property
    def num_detections(self) -> int:
        return sum(len(f.detections) for f in self.frames)


@dataclass
class ViewpointWorld:
    """Generator of viewpoint-distorted observations.

    ``feature_dim`` must be >= 2 (the distortion rotates the first two
    feature axes by θ and attenuates the rest by cos θ/2).
    """

    num_classes: int
    feature_dim: int = 8
    noise: float = 0.25
    frame_width: float = 100.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        at_least("num_classes", self.num_classes, 2)
        at_least("feature_dim", self.feature_dim, 2)
        at_least("noise", self.noise)
        positive("frame_width", self.frame_width)
        # Well-separated prototypes on a sphere.
        protos = self.rng.normal(size=(self.num_classes, self.feature_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        self.prototypes = protos * 4.0

    def drift(self, magnitude: float = 0.3) -> None:
        """Apply environmental drift: rotate + perturb every prototype.

        Models the slow appearance change a fixed camera sees (seasons,
        lighting, wear).  Any model trained before the drift — teacher
        *and* student — degrades; only *ongoing* in-situ adaptation keeps
        up, which is the continual-learning case for Section III.
        ``magnitude`` is the fraction of prototype norm perturbed.
        """
        at_least("drift magnitude", magnitude)
        noise = self.rng.normal(size=self.prototypes.shape)
        self.prototypes = self.prototypes + magnitude * 4.0 * (
            noise / np.linalg.norm(noise, axis=1, keepdims=True)
        )
        # Renormalize to keep class separability comparable over time.
        self.prototypes *= 4.0 / np.linalg.norm(self.prototypes, axis=1, keepdims=True)

    # -- observation model ------------------------------------------------
    def observe(self, cls: int, angle_deg: float, rng: np.random.Generator | None = None) -> np.ndarray:
        """Observed features of a class-``cls`` subject at ``angle_deg``.

        The viewpoint distortion rotates a class's appearance toward the
        *next* class's prototype (aspect confusion: at skewed angles,
        distinct objects project to similar silhouettes) and attenuates
        the remaining discriminative energy.  A classifier fit at θ ≈ 0
        therefore confuses class c with class c+1 as |θ| grows — but the
        map θ → features stays deterministic up to noise, so a student
        *trained at those angles* can still separate the classes.
        """
        rng = rng or self.rng
        theta = math.radians(angle_deg)
        c, s = math.cos(theta), abs(math.sin(theta))
        neighbour = (cls + 1) % self.num_classes
        v = c * self.prototypes[cls] + s * self.prototypes[neighbour]
        v *= 0.5 * (1.0 + math.cos(theta / 2.0))  # mild energy loss off-axis
        return v + rng.normal(0.0, self.noise, size=v.shape)

    def sample_frontal(self, n_per_class: int, max_angle_deg: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
        """Training data as collected at (near-)frontal viewpoints.

        This is what the centrally-trained teacher sees — the viewpoint
        bias the paper describes.
        """
        xs, ys = [], []
        for cls in range(self.num_classes):
            for _ in range(n_per_class):
                angle = float(self.rng.uniform(-max_angle_deg, max_angle_deg))
                xs.append(self.observe(cls, angle))
                ys.append(cls)
        return np.asarray(xs), np.asarray(ys, dtype=np.int64)

    def sample_at_angles(self, n_per_class: int, angles_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluation data uniformly covering ``angles_deg`` (x, y, angle)."""
        xs, ys, aa = [], [], []
        for cls in range(self.num_classes):
            for _ in range(n_per_class):
                angle = float(self.rng.choice(angles_deg))
                xs.append(self.observe(cls, angle))
                ys.append(cls)
                aa.append(angle)
        return np.asarray(xs), np.asarray(ys, dtype=np.int64), np.asarray(aa)

    # -- episode generation -----------------------------------------------
    def generate_episode(
        self,
        n_subjects: int,
        frames_per_crossing: int = 20,
        camera_skew_deg: float = 55.0,
        frontal_window_deg: float = 12.0,
        clutter_rate: float = 0.3,
        spacing: int = 4,
    ) -> Episode:
        """Subjects cross the frame one after another; clutter detections
        (sensor noise, never part of a track) arrive at ``clutter_rate``
        per frame.

        Each crossing sweeps the relative viewpoint angle linearly from
        ``camera_skew_deg`` down to ``±frontal_window_deg`` — skewed for
        most of the track, near-frontal only at the end (where the teacher
        can fire).
        """
        if n_subjects < 1 or frames_per_crossing < 2:
            raise ConfigError("need n_subjects >= 1 and frames_per_crossing >= 2")
        total_t = n_subjects * spacing + frames_per_crossing + 1
        per_frame: dict[int, list[Detection]] = {t: [] for t in range(total_t)}
        tracks: list[TrackTruth] = []
        for track_id in range(n_subjects):
            cls = int(self.rng.integers(self.num_classes))
            t0 = track_id * spacing
            direction = 1 if self.rng.random() < 0.5 else -1
            y_pos = float(self.rng.uniform(20.0, 80.0))
            speed = self.frame_width / (frames_per_crossing - 1)
            end_angle = float(self.rng.uniform(-frontal_window_deg, frontal_window_deg))
            for j in range(frames_per_crossing):
                t = t0 + j
                frac = j / (frames_per_crossing - 1)
                angle = camera_skew_deg + (end_angle - camera_skew_deg) * frac
                x_pos = (self.frame_width * frac) if direction > 0 else (self.frame_width * (1 - frac))
                per_frame[t].append(
                    Detection(
                        position=(float(x_pos), y_pos),
                        features=self.observe(cls, angle),
                        angle_deg=angle,
                        truth_class=cls,
                        truth_track=track_id,
                    )
                )
            tracks.append(TrackTruth(track_id=track_id, cls=cls, start_t=t0, end_t=t0 + frames_per_crossing - 1))
        # Clutter: isolated false detections with random features.
        for t in range(total_t):
            n_clutter = int(self.rng.poisson(clutter_rate))
            for _ in range(n_clutter):
                per_frame[t].append(
                    Detection(
                        position=(float(self.rng.uniform(0, self.frame_width)), float(self.rng.uniform(0, 100.0))),
                        features=self.rng.normal(0.0, 2.0, size=self.feature_dim),
                        angle_deg=0.0,
                        truth_class=-1,
                        truth_track=-1,
                    )
                )
        frames = tuple(Frame(t=t, detections=tuple(per_frame[t])) for t in range(total_t))
        return Episode(frames=frames, tracks=tuple(tracks))
