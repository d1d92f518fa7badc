"""Auto-labelling by propagating confident teacher labels along tracks.

The paper's mechanism (Section III): when the teacher confidently
identifies a subject in *any* frame of a track (typically the
near-frontal end), that label is attached to the track's detections in
*all* frames — "every such instance ... contributes tens of images to
this new dataset".  The harvested set therefore covers skewed angles the
teacher itself cannot classify, which is what lets the student beat the
teacher off-frontal.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

from .teacher import TeacherModel
from .tracker import TrackedDetection
from .world import Episode

__all__ = ["HarvestedSample", "HarvestResult", "harvest_labels"]


@dataclass(frozen=True)
class HarvestedSample:
    """One auto-labelled training example."""

    features: np.ndarray
    label: int
    angle_deg: float
    track_id: int
    truth_class: int  # evaluation only


@dataclass(frozen=True)
class HarvestResult:
    """The harvested dataset plus quality statistics."""

    samples: tuple[HarvestedSample, ...]
    tracks_labelled: int
    tracks_seen: int

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def x(self) -> np.ndarray:
        return np.stack([s.features for s in self.samples])

    @property
    def y(self) -> np.ndarray:
        return np.asarray([s.label for s in self.samples], dtype=np.int64)

    @property
    def angles(self) -> np.ndarray:
        return np.asarray([s.angle_deg for s in self.samples])

    @property
    def label_purity(self) -> float:
        """Fraction of harvested labels matching hidden ground truth."""
        if not self.samples:
            return 1.0
        good = sum(1 for s in self.samples if s.label == s.truth_class)
        return good / len(self.samples)


def harvest_labels(
    episode: Episode,
    assignments: list[TrackedDetection],
    teacher: TeacherModel,
    confidence_threshold: float = 0.9,
    min_track_length: int = 3,
    label_source: str = "track_end",
) -> HarvestResult:
    """Propagate confident teacher labels along tracker tracks.

    ``label_source`` selects which detection names the track:

    * ``"track_end"`` (default, the paper's rule): the temporally last
      detection — where a crossing subject faces the camera, so the
      frontal teacher is both confident *and right*;
    * ``"max_confidence"``: the single most confident detection anywhere
      in the track (vulnerable to confidently-wrong skewed frames under
      aspect confusion — measurably lower label purity, see the
      harvesting ablation bench).

    Either way the chosen confidence must clear ``confidence_threshold``;
    short tracks (clutter) are dropped.
    """
    if not 0.0 < confidence_threshold <= 1.0:
        raise ConfigError("confidence_threshold must be in (0, 1]")
    if label_source not in ("track_end", "max_confidence"):
        raise ConfigError(f"unknown label_source {label_source!r}")
    by_track: dict[int, list[TrackedDetection]] = defaultdict(list)
    for a in assignments:
        by_track[a.track_id].append(a)

    samples: list[HarvestedSample] = []
    labelled = 0
    seen = 0
    for track_id, members in by_track.items():
        if len(members) < min_track_length:
            continue
        seen += 1
        members = sorted(members, key=lambda a: a.t)
        dets = [episode.frames[a.t].detections[a.det_index] for a in members]
        feats = np.stack([d.features for d in dets])
        preds, confs = teacher.predict(feats)
        best = len(dets) - 1 if label_source == "track_end" else int(confs.argmax())
        if confs[best] < confidence_threshold:
            continue
        label = int(preds[best])
        labelled += 1
        for d in dets:
            samples.append(
                HarvestedSample(
                    features=d.features,
                    label=label,
                    angle_deg=d.angle_deg,
                    track_id=track_id,
                    truth_class=d.truth_class,
                )
            )
    return HarvestResult(samples=tuple(samples), tracks_labelled=labelled, tracks_seen=seen)
