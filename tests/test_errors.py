"""The exception hierarchy, and the one finite-number policy at config boundaries."""

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.autodiff import SGD, Momentum
from repro.autodiff.trainer import FitCursor, TrainerConfig
from repro.checkpointing import ChainSpec
from repro.edge import DutyCycleSimulator
from repro.edge.campaign import CampaignConfig, LearningCurve
from repro.edge.device import Device
from repro.edge.fleet import FleetConfig
from repro.edge.power import EnergyModel
from repro.edge.storage import CompressionModel, ImageStore, StorageProfile
from repro.edge.workload import TrainingWorkload
from repro.megafleet import DeviceCohort, MegaFleetConfig
from repro.memory import AccountingPolicy
from repro.resilience import (
    FixedIntervalPolicy,
    PoissonFaults,
)
from repro.studentteacher import PipelineConfig, StudentConfig


@pytest.mark.parametrize(
    "exc",
    [
        errors.ShapeError,
        errors.GraphError,
        errors.ScheduleError,
        errors.ExecutionError,
        errors.MemoryBudgetError,
        errors.CalibrationError,
        errors.PlanningError,
    ],
)
def test_subclasses_of_repro_error(exc):
    assert issubclass(exc, errors.ReproError)
    with pytest.raises(errors.ReproError):
        raise exc("boom")


def test_repro_error_is_exception():
    assert issubclass(errors.ReproError, Exception)


def test_config_error_is_also_a_value_error():
    assert issubclass(errors.ConfigError, errors.ReproError)
    with pytest.raises(ValueError):
        raise errors.ConfigError("out of range")


class TestChecks:
    def test_return_their_value(self):
        assert errors.at_least("x", 0) == 0
        assert errors.at_least("x", 1.5, 1.0) == 1.5
        assert errors.positive("x", 3) == 3
        assert errors.positive("x", math.inf, inf_ok=True) == math.inf

    def test_name_the_field_and_raise_the_callers_type(self):
        with pytest.raises(errors.ConfigError, match=r"^rho must be finite and >= 1\.0, got nan$"):
            errors.at_least("rho", math.nan, 1.0)
        with pytest.raises(errors.PlanningError, match=r"^scale must be finite and > 0, got inf$"):
            errors.positive("scale", math.inf, error=errors.PlanningError)
        with pytest.raises(errors.ConfigError, match=r"^bw must be > 0, got -inf$"):
            errors.positive("bw", -math.inf, inf_ok=True)


@dataclass(frozen=True)
class Case:
    """One public config constructor: valid keyword arguments, the
    numeric fields it must police, which of them may be ``+inf`` ("never")
    and the error type its callers rely on."""

    name: str
    build: Callable[..., Any]
    base: dict
    fields: tuple[str, ...]
    inf_ok: frozenset = frozenset()
    error: type = errors.ConfigError
    #: tuple-valued fields whose every element is policed: name -> indices
    elements: dict = field(default_factory=dict)

    def make(self, name: str, value: float) -> Any:
        kw = dict(self.base)
        if "[" in name:
            key, index = name[:-1].split("[")
            seq = list(kw[key])
            seq[int(index)] = value
            kw[key] = tuple(seq)
        else:
            kw[name] = value
        return self.build(**kw)

    def all_fields(self) -> tuple[str, ...]:
        elems = tuple(f"{k}[{i}]" for k, idx in self.elements.items() for i in idx)
        return self.fields + elems


def _workload(**kw):
    base = dict(model="m", chain_length=18, slot_act_bytes_per_sample=1000, fixed_bytes=10_000,
                flops_per_sample=1e9, n_images=100, batch_size=4)
    return TrainingWorkload(**{**base, **kw})


_COHORT = dict(name="c", count=3)

CASES = (
    Case("Device", Device, dict(name="d", mem_bytes=2**30, cpu_gflops=1.0, storage_bytes=2**30),
         ("mem_bytes", "cpu_gflops", "storage_bytes", "gpu_gflops", "cores", "idle_fraction")),
    Case("EnergyModel", EnergyModel, {}, ("radio_j_per_byte", "compute_j_per_flop", "idle_w")),
    Case("ImageStore", ImageStore, dict(capacity_bytes=10_000), ("capacity_bytes", "image_bytes")),
    Case("TrainingWorkload", _workload, {},
         ("chain_length", "slot_act_bytes_per_sample", "fixed_bytes", "flops_per_sample",
          "n_images", "epochs", "batch_size", "bwd_ratio")),
    Case("LearningCurve", LearningCurve, {}, ("floor", "ceiling", "scale"),
         error=errors.PlanningError),
    Case("CampaignConfig", CampaignConfig, dict(workload=_workload()),
         ("target_accuracy", "crossings_per_day", "images_per_crossing", "labelled_fraction",
          "epochs_per_session", "max_days", "seed")),
    Case("PoissonFaults", PoissonFaults, {}, ("mtbf_seconds",), frozenset({"mtbf_seconds"})),
    Case("StudentConfig", StudentConfig, dict(rho=1.5),
         ("hidden", "depth", "epochs", "batch_size", "lr", "rho", "seed")),
    Case("PipelineConfig", PipelineConfig, dict(angle_bins=(15.0, 30.0, 45.0, 60.0)),
         ("num_classes", "feature_dim", "teacher_train_per_class", "n_subjects",
          "frames_per_crossing", "camera_skew_deg", "confidence_threshold", "eval_per_class",
          "seed"),
         elements={"angle_bins": (0, 3)}),
    Case("TrainerConfig", TrainerConfig,
         dict(slots=3, rho=1.5, activation_budget_bytes=10**6, early_stop_loss=0.1),
         ("epochs", "batch_size", "shuffle_seed", "slots", "rho", "activation_budget_bytes",
          "early_stop_loss")),
    Case("ChainSpec", ChainSpec,
         dict(name="x", act_bytes=(1, 2, 3), fwd_cost=(1.0, 2.0), bwd_cost=(1.0, 2.0)), (),
         error=errors.ScheduleError,
         elements={"act_bytes": (0, 2), "fwd_cost": (0, 1), "bwd_cost": (0, 1)}),
    Case("StorageProfile", StorageProfile, dict(read_bytes_per_s=1e6, read_latency_s=0.01),
         ("write_bytes_per_s", "write_latency_s", "read_bytes_per_s", "read_latency_s"),
         frozenset({"write_bytes_per_s", "write_latency_s", "read_bytes_per_s",
                    "read_latency_s"})),
    Case("CompressionModel", CompressionModel,
         dict(ratio=0.5, compress_bytes_per_s=1e6, decompress_bytes_per_s=1e6),
         ("ratio", "compress_bytes_per_s", "decompress_bytes_per_s", "compress_latency_s",
          "decompress_latency_s", "fidelity_loss"),
         frozenset({"compress_bytes_per_s", "decompress_bytes_per_s", "compress_latency_s",
                    "decompress_latency_s"})),
    Case("SGD", SGD, dict(layers=[]), ("lr",)),
    Case("Momentum", Momentum, dict(layers=[]), ("lr",)),
    # loss_sum is a measured accumulator (a diverged run's NaN loss must
    # still be resumable), not a configured value.
    Case("FitCursor", FitCursor, {}, ("epoch", "batch", "step", "peak_bytes")),
    Case("AccountingPolicy", AccountingPolicy, dict(name="p"),
         ("weight_copies", "activation_copies")),
    Case("FixedIntervalPolicy", FixedIntervalPolicy, dict(interval_steps=5), ("interval_steps",)),
    Case("DutyCycleSimulator", DutyCycleSimulator, dict(rng=np.random.default_rng(0)),
         ("arrival_rate_per_hour", "mean_task_seconds")),
    Case("FleetConfig", FleetConfig, {},
         ("n_nodes", "days", "crossings_per_day_mean", "images_per_crossing", "traffic_shape",
          "transfer_value", "federation_period", "model_bytes", "crash_rate_per_day",
          "snapshot_period_days", "outage_days_mean", "seed"),
         error=errors.PlanningError),
    Case("DeviceCohort", DeviceCohort, _COHORT,
         ("count", "crossings_per_day_mean", "images_per_crossing", "traffic_shape",
          "duty_cycle", "mtbf_days", "snapshot_period_days", "outage_days_mean"),
         frozenset({"mtbf_days"}), error=errors.PlanningError),
    Case("MegaFleetConfig", MegaFleetConfig, dict(cohorts=(DeviceCohort(**_COHORT),)),
         ("days", "transfer_value", "federation_period", "report_every"),
         error=errors.PlanningError),
)

FIELD_CASES = [(case, name) for case in CASES for name in case.all_fields()]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_base_configs_are_legal(case):
    case.build(**case.base)


@pytest.mark.parametrize(
    "case,name", FIELD_CASES, ids=[f"{c.name}.{n}" for c, n in FIELD_CASES]
)
@given(
    bad=st.one_of(
        st.just(math.nan),
        st.just(-math.inf),
        st.just(math.inf),
        st.floats(max_value=-1e-6, allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=12, deadline=None)
def test_non_finite_and_negative_values_fail_typed(case, name, bad):
    """NaN, -inf and negatives raise the case's ReproError at
    construction; +inf does too, except on the fields where it means
    "never", which accept it."""
    if bad == math.inf and name in case.inf_ok:
        case.make(name, bad)
        return
    with pytest.raises(errors.ReproError) as info:
        case.make(name, bad)
    assert isinstance(info.value, case.error)
