"""Energy accounting: ship data to the cloud, or process it in place?

Section I motivates edge processing with "reduced power and bandwidth
requirements".  This module is a *calculator*, not an advocate — the
winner depends on radio and silicon efficiency, both of which span
orders of magnitude across deployments, so every coefficient is a
parameter and the interesting outputs are breakevens:

* :func:`breakeven_epochs` — the *training* question: upload the
  harvested set once vs run ``epochs`` of local (possibly checkpointed,
  ρ > 1) training.  With compressed
  10 kB images and multi-GFLOP models, shipping the *training set* is
  often energetically cheap — the in-situ case rests on privacy,
  bandwidth provisioning and continuous freshness, which this module
  prices but does not monetize.
* :func:`streaming_comparison` — the *inference* question the paper's
  platform actually faces: stream every camera frame to a central model
  forever, vs run inference on the node.  Here the balance tips with
  frame size × fps against per-frame FLOPs.

Defaults: ~5 µJ/byte (LTE-class radio; WiFi can be 10× cheaper) and
~0.1 nJ/FLOP (embedded-GPU class, ~10 GFLOPS/W effective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError, at_least

__all__ = [
    "EnergyModel",
    "EnergyComparison",
    "breakeven_epochs",
    "streaming_comparison",
]


@dataclass(frozen=True)
class EnergyModel:
    """Per-unit energy costs of a node."""

    radio_j_per_byte: float = 5e-6
    compute_j_per_flop: float = 1e-10
    idle_w: float = 2.0  # baseline draw, charged to wall-clock seconds

    def __post_init__(self) -> None:
        at_least("radio_j_per_byte", self.radio_j_per_byte)
        at_least("compute_j_per_flop", self.compute_j_per_flop)
        at_least("idle_w", self.idle_w)

    def transfer_energy(self, nbytes: float) -> float:
        """Joules to move ``nbytes`` over the radio."""
        return at_least("nbytes", nbytes) * self.radio_j_per_byte

    def compute_energy(self, flops: float) -> float:
        """Joules to execute ``flops``."""
        return at_least("flops", flops, inf_ok=True) * self.compute_j_per_flop


@dataclass(frozen=True)
class EnergyComparison:
    """Energy of both strategies for one adaptation task."""

    ship_joules: float
    local_joules: float
    n_images: int
    epochs: int

    @property
    def local_wins(self) -> bool:
        return self.local_joules <= self.ship_joules

    @property
    def ratio(self) -> float:
        """local / ship — below 1 means in-situ training is cheaper."""
        if self.ship_joules == 0:
            return float("inf") if self.local_joules > 0 else 1.0
        return self.local_joules / self.ship_joules


def breakeven_epochs(
    image_bytes: int,
    flops_per_sample: float,
    model: EnergyModel = EnergyModel(),
    rho: float = 1.0,
    bwd_ratio: float = 2.0,
) -> float:
    """Epochs of local training that cost as much as shipping the data.

    Independent of the dataset size (both sides scale linearly in it).
    Returns ``inf`` when local training is free, 0 when the radio is.
    """
    per_image_ship = model.transfer_energy(image_bytes)
    fwd = flops_per_sample
    step_flops = fwd * (1.0 + (rho - 1.0) * (1.0 + bwd_ratio)) + fwd * bwd_ratio
    per_image_epoch = model.compute_energy(step_flops)
    if per_image_epoch == 0:
        return float("inf")
    return per_image_ship / per_image_epoch


def streaming_comparison(
    fps: float,
    frame_bytes: int,
    inference_flops_per_frame: float,
    seconds: float = 86_400.0,
    model: EnergyModel = EnergyModel(),
) -> EnergyComparison:
    """Energy of streaming frames out vs running inference locally.

    This is the Section I bandwidth/power argument for edge *inference*
    (counting people, cars, floods on the Waggle nodes): ``ship``
    uploads every frame for the given duration; ``local`` runs the
    model per frame on the node.
    """
    if not all(0 < x < math.inf for x in (fps, frame_bytes, seconds)):
        raise ConfigError("fps, frame_bytes and seconds must be positive")
    if not inference_flops_per_frame >= 0:
        raise ConfigError("inference_flops_per_frame must be non-negative")
    n_frames = fps * seconds
    ship = model.transfer_energy(n_frames * frame_bytes)
    local = model.compute_energy(n_frames * inference_flops_per_frame)
    return EnergyComparison(
        ship_joules=ship,
        local_joules=local,
        n_images=int(n_frames),
        epochs=1,
    )
