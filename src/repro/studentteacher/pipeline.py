"""End-to-end Section III pipeline: world → teacher → tracker → harvest →
student, with before/after accuracy-by-angle evaluation.

This is the experiment the paper *motivates* but does not run: it
measures how much of the viewpoint-induced accuracy loss the in-situ
student recovers, using only the teacher model and data collected on the
node (no data transferred in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff.data import Dataset
from ..edge.storage import ImageStore
from ..errors import ConfigError, at_least
from ..obs import get_metrics, get_tracer
from .harvest import HarvestResult, harvest_labels
from .student import StudentConfig, StudentModel, train_student
from .teacher import TeacherModel
from .tracker import track_episode
from .world import ViewpointWorld

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the end-to-end simulation."""

    num_classes: int = 5
    feature_dim: int = 8
    teacher_train_per_class: int = 200
    n_subjects: int = 120
    frames_per_crossing: int = 20
    camera_skew_deg: float = 55.0
    confidence_threshold: float = 0.9
    eval_per_class: int = 200
    angle_bins: tuple[float, ...] = (15.0, 30.0, 45.0, 60.0)
    student: StudentConfig = field(default_factory=StudentConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        for name, lo in (("num_classes", 2), ("feature_dim", 2), ("frames_per_crossing", 2),
                         ("teacher_train_per_class", 1), ("n_subjects", 1), ("eval_per_class", 1),
                         ("camera_skew_deg", 0), ("seed", 0)):
            at_least(name, getattr(self, name), lo)
        for b in self.angle_bins:
            at_least("angle_bins", b)
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ConfigError("confidence_threshold must be in (0, 1]")


@dataclass(frozen=True)
class PipelineResult:
    """Everything the viewpoint experiment measures."""

    teacher_frontal_accuracy: float
    teacher_by_angle: dict[float, float]
    student_by_angle: dict[float, float]
    harvest: HarvestResult
    student: StudentModel
    storage_bytes_needed: int

    @property
    def skew_recovery(self) -> float:
        """Accuracy gained at the most skewed bin (student − teacher)."""
        key = max(self.teacher_by_angle)
        return self.student_by_angle.get(key, 0.0) - self.teacher_by_angle[key]

    def summary(self) -> str:
        lines = [
            f"teacher frontal accuracy: {self.teacher_frontal_accuracy:.3f}",
            f"harvested samples: {len(self.harvest)} "
            f"({self.harvest.tracks_labelled}/{self.harvest.tracks_seen} tracks, "
            f"purity {self.harvest.label_purity:.3f})",
            f"{'bin<=deg':>10} {'teacher':>8} {'student':>8}",
        ]
        for b in sorted(self.teacher_by_angle):
            t = self.teacher_by_angle[b]
            s = self.student_by_angle.get(b, float("nan"))
            lines.append(f"{b:>10.0f} {t:>8.3f} {s:>8.3f}")
        return "\n".join(lines)


def run_pipeline(cfg: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Run the full in-situ student-teacher experiment.

    Each stage runs under its own ``stage``-category span of the process
    tracer; harvest size/purity land on the shared metrics registry.
    """
    rng = np.random.default_rng(cfg.seed)
    tracer = get_tracer()
    world = ViewpointWorld(
        num_classes=cfg.num_classes,
        feature_dim=cfg.feature_dim,
        rng=rng,
    )

    with tracer.span(
        "viewpoint_pipeline",
        category="campaign",
        n_subjects=cfg.n_subjects,
        skew_deg=cfg.camera_skew_deg,
    ):
        # 1. Teacher fit on frontal (centrally collected) data.
        with tracer.span("teacher_fit", category="stage"):
            x_tr, y_tr = world.sample_frontal(cfg.teacher_train_per_class)
            teacher = TeacherModel.fit(x_tr, y_tr)
            teacher_frontal = teacher.accuracy(x_tr, y_tr)

        # 2. The node watches subjects cross; the tracker links detections.
        with tracer.span("track", category="stage"):
            episode = world.generate_episode(
                n_subjects=cfg.n_subjects,
                frames_per_crossing=cfg.frames_per_crossing,
                camera_skew_deg=cfg.camera_skew_deg,
            )
            assignments = track_episode(episode)

        # 3. Harvest auto-labelled data via confident-label propagation.
        with tracer.span("harvest", category="stage") as h_span:
            harvest = harvest_labels(
                episode,
                assignments,
                teacher,
                confidence_threshold=cfg.confidence_threshold,
            )
            h_span.set_tag("samples", len(harvest))
            h_span.set_tag("purity", harvest.label_purity)
        m = get_metrics()
        m.gauge("pipeline.harvested_samples").set(len(harvest))
        m.gauge("pipeline.label_purity").set(harvest.label_purity)

        # 4. Train the student in-situ on the harvested set.
        with tracer.span("student_train", category="stage"):
            student = train_student(
                Dataset(harvest.x, harvest.y),
                num_classes=cfg.num_classes,
                cfg=cfg.student,
            )

        # 5. Evaluate both models across the full angle range.
        with tracer.span("evaluate", category="stage"):
            bins = np.asarray(cfg.angle_bins)
            angles = np.linspace(-cfg.camera_skew_deg, cfg.camera_skew_deg, 23)
            x_ev, y_ev, a_ev = world.sample_at_angles(cfg.eval_per_class, angles)
            teacher_by_angle = teacher.accuracy_by_angle(x_ev, y_ev, a_ev, bins)
            student_by_angle = student.accuracy_by_angle(x_ev, y_ev, a_ev, bins)

        # 6. Storage check (paper's 10 kB/image sizing).
        store = ImageStore(capacity_bytes=10**12)  # unbounded; we just size it
        storage_needed = store.dataset_bytes(len(harvest))

    return PipelineResult(
        teacher_frontal_accuracy=teacher_frontal,
        teacher_by_angle=teacher_by_angle,
        student_by_angle=student_by_angle,
        harvest=harvest,
        student=student,
        storage_bytes_needed=storage_needed,
    )
