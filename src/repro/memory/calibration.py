"""The paper's published table values and coefficient extraction.

Tables I–III of the paper are exactly affine in batch size and (nearly)
quadratic in image side per model, so each model is characterized by two
numbers: ``M_fixed`` and the per-sample activation size at 224 px,
``M_act224``.  This module ships the published values verbatim, fits the
coefficients, and exposes :class:`CalibratedModel` so every bench can print
*paper-calibrated* rows next to our first-principles rows.

Fitting Table I (batch 1 and 50 rows) gives, in MB:

======  =========  =========
model   M_fixed    M_act224
======  =========  =========
R18      175.05      55.00
R34      329.29      83.71
R50      384.85     235.42
R101     674.65     352.56
R152     913.36     497.26
======  =========  =========

``M_fixed`` is 3.93–3.98× the fp32 weight size of each model — i.e. four
weight copies, confirming the accounting convention in
:mod:`repro.memory.accounting`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CalibrationError, at_least
from ..units import MB

__all__ = [
    "PAPER_TABLE1_MB",
    "PAPER_TABLE2_MB",
    "PAPER_TABLE3_GB",
    "PAPER_BATCH_SIZES",
    "PAPER_IMAGE_SIZES_T2",
    "PAPER_IMAGE_SIZES_T3",
    "PAPER_DEVICE_BUDGET_MB",
    "CalibratedModel",
    "fit_paper_coefficients",
    "calibrated_models",
]

#: Batch sizes of Table I.
PAPER_BATCH_SIZES: tuple[int, ...] = (1, 3, 5, 10, 30, 50)
#: Image sizes of Table II.
PAPER_IMAGE_SIZES_T2: tuple[int, ...] = (224, 350, 500, 650, 1100, 1500)
#: Image sizes of Table III.
PAPER_IMAGE_SIZES_T3: tuple[int, ...] = (224, 350, 500, 650)
#: The ODROID XU4 memory budget the paper shades cells against.
PAPER_DEVICE_BUDGET_MB: float = 2048.0

#: Table I — MB at image 224, rows = batch size, cols = ResNet depth.
PAPER_TABLE1_MB: dict[int, dict[int, float]] = {
    1: {18: 230.05, 34: 413.00, 50: 620.27, 101: 1027.21, 152: 1410.62},
    3: {18: 340.05, 34: 580.42, 50: 1091.11, 101: 1732.33, 152: 2405.14},
    5: {18: 450.06, 34: 747.85, 50: 1561.94, 101: 2437.45, 152: 3399.67},
    10: {18: 725.07, 34: 1166.42, 50: 2739.04, 101: 4200.25, 152: 5885.98},
    30: {18: 1825.13, 34: 2840.70, 50: 7447.42, 101: 11251.43, 152: 15831.23},
    50: {18: 2925.18, 34: 4514.97, 50: 12155.79, 101: 18302.62, 152: 25776.48},
}

#: Table II — MB at batch 1, rows = image side.
PAPER_TABLE2_MB: dict[int, dict[int, float]] = {
    224: {18: 230.05, 34: 413.00, 50: 620.27, 101: 1027.21, 152: 1410.62},
    350: {18: 309.83, 34: 534.96, 50: 964.66, 101: 1543.72, 152: 2139.75},
    500: {18: 449.21, 34: 749.73, 50: 1570.93, 101: 2472.72, 152: 3458.50},
    650: {18: 639.07, 34: 1039.08, 50: 2387.54, 101: 3682.00, 152: 5161.76},
    1100: {18: 1496.10, 34: 2346.95, 50: 6073.06, 101: 9208.30, 152: 12961.96},
    1500: {18: 2628.70, 34: 4075.07, 50: 10944.42, 101: 16515.11, 152: 23277.27},
}

#: Table III — GB at batch 8, rows = image side.
PAPER_TABLE3_GB: dict[int, dict[int, float]] = {
    224: {18: 0.60, 34: 0.98, 50: 2.22, 101: 3.41, 152: 4.78},
    350: {18: 1.22, 34: 1.93, 50: 4.90, 101: 7.45, 152: 10.47},
    500: {18: 2.31, 34: 3.60, 50: 9.63, 101: 14.69, 152: 20.76},
    650: {18: 3.79, 34: 5.86, 50: 15.99, 101: 24.13, 152: 34.06},
}


@dataclass(frozen=True)
class CalibratedModel:
    """Per-model coefficients fitted from the paper's Table I (in bytes)."""

    depth: int
    fixed_bytes: float
    act224_bytes: float

    def act_bytes(self, image_size: int) -> float:
        """Quadratic image scaling from the 224 px reference."""
        return self.act224_bytes * (image_size / 224.0) ** 2

    def total_bytes(self, batch_size: int = 1, image_size: int = 224) -> float:
        at_least("batch_size", batch_size, 1)
        return self.fixed_bytes + batch_size * self.act_bytes(image_size)

    def total_mb(self, batch_size: int = 1, image_size: int = 224) -> float:
        return self.total_bytes(batch_size, image_size) / MB


def fit_paper_coefficients(depth: int) -> CalibratedModel:
    """Fit ``(M_fixed, M_act224)`` from Table I by least squares over k.

    Table I is affine in batch size to <0.01 MB, so ordinary least squares
    over all six batch sizes recovers the coefficients essentially exactly.
    """
    rows = [(k, PAPER_TABLE1_MB[k].get(depth)) for k in PAPER_BATCH_SIZES]
    if any(v is None for _, v in rows):
        raise CalibrationError(f"no paper data for ResNet depth {depth}")
    n = len(rows)
    sum_k = sum(k for k, _ in rows)
    sum_m = sum(m for _, m in rows)  # type: ignore[misc]
    sum_kk = sum(k * k for k, _ in rows)
    sum_km = sum(k * m for k, m in rows)  # type: ignore[operator]
    denom = n * sum_kk - sum_k * sum_k
    slope = (n * sum_km - sum_k * sum_m) / denom
    intercept = (sum_m - slope * sum_k) / n
    return CalibratedModel(
        depth=depth, fixed_bytes=intercept * MB, act224_bytes=slope * MB
    )


def calibrated_models() -> dict[int, CalibratedModel]:
    """All five calibrated models keyed by depth."""
    return {d: fit_paper_coefficients(d) for d in (18, 34, 50, 101, 152)}
