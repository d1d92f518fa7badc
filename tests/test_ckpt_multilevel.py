"""Two-level (disk) checkpointing: DP limits, exact schedules, tiers.

``disk_revolve_*`` are the joint DP at unit prices; this module keeps
Aupy et al.'s two-level recurrence as an independent oracle
(:func:`reference_disk_revolve`) and pins the wrappers to it.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing import (
    DISK_SLOT_BASE,
    ChainSpec,
    disk_revolve_cost,
    disk_revolve_schedule,
    disk_revolve_splits,
    opt_forwards,
    simulate,
)
from repro.engine import TieredBackend, execute
from repro.errors import ScheduleError


@lru_cache(maxsize=None)
def _dr(l: int, c_m: int, write_cost: float, read_cost: float) -> tuple[float, int]:
    """Inner DP: segment whose base is *already on disk*.

    Returns (optimal cost, first split j; 0 = finish in memory).  A
    candidate is summed as forwards to the split, read of the base,
    in-memory reversal of the left part, write of the split, then the
    right part -- the order the planner adds them in.  A later split
    must win by more than 1e-12, and with a price of exactly that size
    (hypothesis draws the literal from the source) only an identical
    float sum decides the tie the same way.
    """
    best, best_j = float(opt_forwards(l, c_m)), 0
    for j in range(1, l):
        right, _ = _dr(l - j, c_m, write_cost, read_cost)
        left = float(opt_forwards(j, c_m))
        val = j + read_cost + left + write_cost + right
        if val < best - 1e-12:
            best, best_j = val, j
    return best, best_j


def _dr_top(l: int, c_m: int, write_cost: float, read_cost: float) -> tuple[float, int]:
    """Top-level DP: x_0 starts in the cursor, *not* on disk.

    Taking any split requires first parking x_0 on disk (one extra
    write), so the best disk plan is priced against pure in-memory
    Revolve.
    """
    revolve = float(opt_forwards(l, c_m))
    paged, j = _dr(l, c_m, write_cost, read_cost)
    val = write_cost + paged
    if val < revolve - 1e-12:
        return val, j
    return revolve, 0


def reference_disk_revolve(
    l: int, c_m: int, write_cost: float = 1.0, read_cost: float = 1.0
) -> tuple[float, list[int]]:
    """Aupy et al.'s two-level DP, written out on its own: (cost, splits)."""
    c_eff = min(c_m, max(1, l - 1))
    w, r = float(write_cost), float(read_cost)
    cost, j = _dr_top(l, c_eff, w, r)
    splits: list[int] = []
    base = 0
    while j:
        splits.append(base + j)
        base += j
        _, j = _dr(l - base, c_eff, w, r)
    return cost, splits


def tiered_run(sch, spec=None):
    """Execute with per-tier accounting on a pure-counting tiered backend."""
    return execute(sch, TieredBackend(spec or ChainSpec.homogeneous(sch.length)))


def total_cost(run, w: float, r: float) -> float:
    """Forwards + disk I/O in forward units (the DP's objective)."""
    disk = run.tier("disk")
    return run.forward_steps + w * disk.writes + r * disk.reads


_PRICES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 1e9]) | st.floats(0, 10)


class TestMatchesReference:
    @given(l=st.integers(1, 40), c=st.integers(1, 6), w=_PRICES, r=_PRICES)
    @settings(max_examples=200, deadline=None)
    def test_splits_and_cost_match_reference(self, l, c, w, r):
        ref_cost, ref_splits = reference_disk_revolve(l, c, w, r)
        assert disk_revolve_splits(l, c, w, r) == ref_splits
        assert disk_revolve_cost(l, c, w, r) == pytest.approx(ref_cost, rel=1e-12)


class TestCostLimits:
    @given(l=st.integers(1, 30), c=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_free_disk_is_single_sweep(self, l, c):
        """w = r = 0: disk behaves like infinite memory => l-1 forwards."""
        assert disk_revolve_cost(l, c, 0.0, 0.0) == float(l - 1)

    @given(l=st.integers(1, 30), c=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_expensive_disk_is_pure_revolve(self, l, c):
        c_eff = min(c, max(1, l - 1))
        assert disk_revolve_cost(l, c, 1e9, 1e9) == float(opt_forwards(l, c_eff))

    @given(l=st.integers(1, 30), c=st.integers(1, 6), w=st.floats(0, 10), r=st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_either_extreme(self, l, c, w, r):
        c_eff = min(c, max(1, l - 1))
        cost = disk_revolve_cost(l, c, w, r)
        assert cost <= opt_forwards(l, c_eff) + 1e-9
        assert cost >= l - 1 - 1e-9  # single sweep is the absolute floor

    def test_monotone_in_disk_cost(self):
        costs = [disk_revolve_cost(40, 2, w, w) for w in (0.0, 0.5, 1.0, 2.0, 5.0, 100.0)]
        assert costs == sorted(costs)

    def test_monotone_in_memory_slots(self):
        costs = [disk_revolve_cost(40, c, 2.0, 1.0) for c in (1, 2, 3, 5, 8)]
        assert costs == sorted(costs, reverse=True)

    def test_headline_win(self):
        """LinearResNet-152 with 3 memory slots: the SD tier cuts total
        cost by >2x versus memory-only Revolve."""
        two_level = disk_revolve_cost(152, 3, 2.0, 1.0)
        memory_only = opt_forwards(152, 3)
        assert two_level < memory_only / 2

    def test_validation(self):
        with pytest.raises(ScheduleError):
            disk_revolve_cost(0, 1)
        with pytest.raises(ScheduleError):
            disk_revolve_cost(5, 0)
        with pytest.raises(ScheduleError):
            disk_revolve_cost(5, 1, write_cost=-1.0)

    @pytest.mark.parametrize(
        "entry", (disk_revolve_cost, disk_revolve_splits, disk_revolve_schedule)
    )
    @pytest.mark.parametrize("w,r", ((math.nan, 1.0), (1.0, math.nan)))
    def test_nan_prices_rejected(self, entry, w, r):
        """NaN compares False both ways: it passes a ``w < 0`` check, then
        loses every ``val < best`` and yields a plausible pure-Revolve cost."""
        with pytest.raises(ScheduleError):
            entry(10, 2, w, r)

    def test_infinite_prices_mean_never_page(self):
        assert disk_revolve_cost(10, 2, math.inf, math.inf) == opt_forwards(10, 2)
        assert disk_revolve_splits(10, 2, math.inf, 1.0) == []


class TestSplits:
    def test_no_splits_when_disk_useless(self):
        assert disk_revolve_splits(20, 3, 1e9, 1e9) == []

    def test_splits_strictly_increasing_in_range(self):
        splits = disk_revolve_splits(60, 2, 1.0, 1.0)
        assert splits == sorted(set(splits))
        assert all(0 < s < 60 for s in splits)

    def test_cheaper_disk_more_splits(self):
        few = len(disk_revolve_splits(60, 2, 10.0, 10.0))
        many = len(disk_revolve_splits(60, 2, 0.1, 0.1))
        assert many >= few


class TestSchedule:
    @given(
        l=st.integers(1, 35),
        c=st.integers(1, 5),
        w=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        r=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_schedule_achieves_dp_cost(self, l, c, w, r):
        sch = disk_revolve_schedule(l, c, w, r)
        run = tiered_run(sch)
        assert total_cost(run, w, r) == pytest.approx(disk_revolve_cost(l, c, w, r))
        assert run.tier("memory").peak_slots <= c

    def test_pure_revolve_fallback(self):
        sch = disk_revolve_schedule(10, 3, 1e9, 1e9)
        assert sch.strategy == "revolve"
        assert tiered_run(sch).tier("disk").writes == 0

    def test_disk_slots_use_reserved_ids(self):
        sch = disk_revolve_schedule(40, 2, 1.0, 1.0)
        disk_ids = {s for s in sch.used_slots() if s >= DISK_SLOT_BASE}
        assert disk_ids  # the plan actually uses the disk
        assert sch.strategy == "disk_revolve(c_m=2)"

    def test_reads_are_one_fewer_than_writes(self):
        """Every disk base is read back except the rightmost segment's,
        whose activation is still in the cursor when backward starts."""
        sch = disk_revolve_schedule(40, 2, 1.0, 1.0)
        disk = tiered_run(sch).tier("disk")
        assert disk.reads == disk.writes - 1

    def test_flat_simulator_validates(self):
        sch = disk_revolve_schedule(25, 2, 1.0, 0.5)
        stats = simulate(sch)  # raises if any invariant is violated
        assert stats.replay_steps == 25

    def test_byte_accounting_by_tier(self):
        spec = ChainSpec.homogeneous(12, act_bytes=10)
        sch = disk_revolve_schedule(12, 2, 0.5, 0.5)
        run = tiered_run(sch, spec)
        assert run.tier("memory").peak_bytes <= 2 * 10
        assert run.tier("disk").peak_bytes >= 10

    def test_drives_real_executor_with_exact_gradients(self):
        """Disk slots are ordinary slot ids to the NumPy executor: a
        two-tier plan trains with gradients identical to store-all."""
        import numpy as np

        from repro.autodiff import DenseLayer, SequentialNet, run_schedule

        rng = np.random.default_rng(0)
        l = 12
        layers = [DenseLayer(6, 6, rng, name=f"f{i}") for i in range(l - 1)]
        layers.append(DenseLayer(6, 2, rng, name="head"))
        net = SequentialNet(layers)
        x = rng.normal(size=(3, 6))
        y = rng.integers(0, 2, size=3)
        loss_ref, grads_ref, _ = net.train_step(x, y)
        res = run_schedule(net, disk_revolve_schedule(l, 2, 0.5, 0.5), x, y)
        assert res.loss == loss_ref
        for k in grads_ref:
            assert np.array_equal(res.grads[k], grads_ref[k])
