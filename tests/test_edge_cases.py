"""Cross-cutting edge cases not covered by the per-module suites."""

import numpy as np
import pytest

from repro.autodiff.ops import maxpool2d_backward, maxpool2d_forward
from repro.checkpointing import (
    ActionKind,
    Schedule,
    adjoint,
    restore,
    revolve_schedule,
    slots_for_rho,
    snapshot,
)
from repro.edge import ODROID_XU4, TrainingWorkload, estimate_epoch
from repro.experiments import default_rhos
from repro.units import MB


class TestMaxPoolStridePath:
    """The im2col fallback when the window does not tile the input."""

    def test_overlapping_windows_match_naive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        out, arg = maxpool2d_forward(x, k=3, stride=2)
        assert out.shape == (2, 3, 2, 2)
        for n in range(2):
            for c in range(3):
                for i in range(2):
                    for j in range(2):
                        window = x[n, c, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                        assert out[n, c, i, j] == window.max()

    def test_overlapping_backward_scatter(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 5, 5))
        out, arg = maxpool2d_forward(x, k=3, stride=2)
        dy = np.ones_like(out)
        dx = maxpool2d_backward(x.shape, arg, dy, k=3, stride=2)
        # Total gradient mass is conserved.
        assert dx.sum() == pytest.approx(dy.sum())


class TestScheduleIteration:
    def test_iter_yields_actions(self):
        sch = Schedule(
            strategy="s", length=1, slots=1,
            actions=(snapshot(0), restore(0), adjoint(1)),
        )
        kinds = [a.kind for a in sch]
        assert kinds == [ActionKind.SNAPSHOT, ActionKind.RESTORE, ActionKind.ADJOINT]

    def test_count_by_kind(self):
        sch = revolve_schedule(10, 3)
        total = sum(sch.count(k) for k in ActionKind)
        assert total == len(sch)


class TestFigure1Grid:
    def test_default_rhos_validation(self):
        with pytest.raises(ValueError):
            default_rhos(n=1)

    def test_custom_range(self):
        rhos = default_rhos(n=5, lo=1.0, hi=2.0)
        assert rhos == (1.0, 1.25, 1.5, 1.75, 2.0)

    def test_memory_curve_respects_bwd_ratio(self):
        # Heavier backward -> recompute is cheaper in rho terms -> fewer
        # slots needed at the same rho -> less memory.
        a = slots_for_rho(50, 1.2, bwd_ratio=1.0)
        b = slots_for_rho(50, 1.2, bwd_ratio=2.0)
        assert b <= a


class TestEpochEstimateKnobs:
    def workload(self):
        return TrainingWorkload(
            model="m",
            chain_length=18,
            slot_act_bytes_per_sample=MB,
            fixed_bytes=100 * MB,
            flops_per_sample=1e9,
            n_images=1000,
            batch_size=4,
        )

    def test_floor_raises_small_batch_speed(self):
        low = estimate_epoch(self.workload(), ODROID_XU4, floor=0.1)
        high = estimate_epoch(self.workload(), ODROID_XU4, floor=0.9)
        assert high.step_seconds < low.step_seconds

    def test_full_at_changes_saturation(self):
        early = estimate_epoch(self.workload(), ODROID_XU4, full_at=4)
        late = estimate_epoch(self.workload(), ODROID_XU4, full_at=64)
        assert early.efficiency >= late.efficiency
