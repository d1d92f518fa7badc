"""In-situ student-teacher training against the viewpoint problem."""

from .world import Detection, Episode, Frame, TrackTruth, ViewpointWorld
from .teacher import TeacherModel
from .tracker import TrackedDetection, Tracker, TrackState, track_episode
from .harvest import HarvestedSample, HarvestResult, harvest_labels
from .student import StudentConfig, StudentModel, build_student, train_student
from .pipeline import PipelineConfig, PipelineResult, run_pipeline

__all__ = [
    "ViewpointWorld",
    "Detection",
    "Frame",
    "TrackTruth",
    "Episode",
    "TeacherModel",
    "Tracker",
    "TrackState",
    "TrackedDetection",
    "track_episode",
    "HarvestedSample",
    "HarvestResult",
    "harvest_labels",
    "StudentConfig",
    "StudentModel",
    "build_student",
    "train_student",
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
]
