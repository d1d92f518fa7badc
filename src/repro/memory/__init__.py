"""Memory models: accounting policies, scaling laws, paper calibration."""

from .accounting import (
    ADAM_POLICY,
    INFERENCE_POLICY,
    MOMENTUM_POLICY,
    OPTIMIZER_WEIGHT_COPIES,
    SGD_POLICY,
    TRAINING_POLICY,
    AccountingPolicy,
    MemoryAccount,
    account,
)
from .model import MemoryModel, memory_model_for
from .calibration import (
    PAPER_BATCH_SIZES,
    PAPER_DEVICE_BUDGET_MB,
    PAPER_IMAGE_SIZES_T2,
    PAPER_IMAGE_SIZES_T3,
    PAPER_TABLE1_MB,
    PAPER_TABLE2_MB,
    PAPER_TABLE3_GB,
    CalibratedModel,
    calibrated_models,
    fit_paper_coefficients,
)
from .profile import LayerProfile, MemoryProfile, memory_profile

__all__ = [
    "AccountingPolicy",
    "MemoryAccount",
    "account",
    "INFERENCE_POLICY",
    "SGD_POLICY",
    "MOMENTUM_POLICY",
    "ADAM_POLICY",
    "TRAINING_POLICY",
    "OPTIMIZER_WEIGHT_COPIES",
    "MemoryModel",
    "memory_model_for",
    "CalibratedModel",
    "calibrated_models",
    "fit_paper_coefficients",
    "PAPER_TABLE1_MB",
    "PAPER_TABLE2_MB",
    "PAPER_TABLE3_GB",
    "PAPER_BATCH_SIZES",
    "PAPER_IMAGE_SIZES_T2",
    "PAPER_IMAGE_SIZES_T3",
    "PAPER_DEVICE_BUDGET_MB",
    "LayerProfile",
    "MemoryProfile",
    "memory_profile",
]
