"""Backend-specific behavior: occupied-slot regression, message parity,
tiered-storage pricing.

Satellites of the engine refactor: the SNAPSHOT-into-occupied-slot
invariant must hold on *every* backend through the public wrappers, the
simulator and executor must raise the *same* error text for the same
broken schedule, and a ``disk_revolve`` schedule must execute with
measured per-tier transfer seconds.
"""

import numpy as np
import pytest

from repro.checkpointing import (
    DISK_SLOT_BASE,
    ChainSpec,
    Schedule,
    adjoint,
    advance,
    disk_revolve_cost,
    disk_revolve_schedule,
    free,
    restore,
    simulate,
    snapshot,
)
from repro.autodiff import DenseLayer, SequentialNet, run_schedule
from repro.edge.storage import EMMC, SD_CARD, StorageProfile
from repro.engine import SimBackend, TieredBackend, execute
from repro.errors import ExecutionError


def _sched(l, slots, *actions):
    return Schedule(strategy="test", length=l, slots=slots, actions=tuple(actions))


def _dense_net(l, rng, dim=4, classes=3):
    layers = [DenseLayer(dim, dim, rng, name=f"d{i}") for i in range(l - 1)]
    layers.append(DenseLayer(dim, classes, rng, name="head"))
    return SequentialNet(layers, name=f"net{l}")


def _batch(rng, dim=4, classes=3, n=6):
    x = rng.standard_normal((n, dim))
    labels = rng.integers(0, classes, size=n)
    return x, labels


# A SNAPSHOT into a still-occupied slot silently discarded the old
# checkpoint before the engine refactor; now every backend rejects it.
OCCUPIED = _sched(3, 2, snapshot(0), advance(1), snapshot(0))


class TestOccupiedSlotRegression:
    def test_sim_backend_rejects(self):
        with pytest.raises(ExecutionError, match="occupied slot 0"):
            simulate(OCCUPIED)

    def test_tensor_backend_rejects(self, rng):
        net = _dense_net(3, rng)
        x, labels = _batch(rng)
        with pytest.raises(ExecutionError, match="occupied slot 0"):
            run_schedule(net, OCCUPIED, x, labels)

    def test_tiered_backend_rejects(self):
        with pytest.raises(ExecutionError, match="occupied slot 0"):
            execute(OCCUPIED, TieredBackend(ChainSpec.homogeneous(3)))


BROKEN = {
    "advance_backwards": _sched(3, 1, advance(2), advance(1)),
    "advance_past_end": _sched(3, 1, advance(4)),
    "snapshot_over_budget": _sched(3, 2, snapshot(2)),
    "snapshot_occupied": OCCUPIED,
    "restore_empty": _sched(3, 2, restore(1)),
    "free_empty": _sched(3, 2, free(0)),
    "adjoint_out_of_order": _sched(2, 1, snapshot(0), advance(1), adjoint(1)),
    "adjoint_wrong_cursor": _sched(2, 1, snapshot(0), adjoint(2)),
    "unfinished_backwards": _sched(2, 1, snapshot(0), advance(1), adjoint(2)),
}


class TestMessageParity:
    """Simulator and executor now share one VM, hence one error text."""

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_same_wording_both_paths(self, case, rng):
        sch = BROKEN[case]
        with pytest.raises(ExecutionError) as sim_exc:
            simulate(sch)
        net = _dense_net(sch.length, rng)
        x, labels = _batch(rng)
        with pytest.raises(ExecutionError) as ten_exc:
            run_schedule(net, sch, x, labels)
        assert str(sim_exc.value) == str(ten_exc.value)

    def test_length_mismatch_same_wording(self, rng):
        sch = _sched(5, 2, advance(5))
        with pytest.raises(ExecutionError) as sim_exc:
            simulate(sch, ChainSpec.homogeneous(7))
        net = _dense_net(7, rng)
        x, labels = _batch(rng)
        with pytest.raises(ExecutionError) as ten_exc:
            run_schedule(net, sch, x, labels)
        assert str(sim_exc.value) == str(ten_exc.value)
        assert "schedule length 5 != chain length 7" in str(sim_exc.value)


class TestStorageProfileReads:
    def test_read_path_mirrors_write_by_default(self):
        p = StorageProfile("sym", write_bytes_per_s=1000.0, write_latency_s=0.5)
        assert p.read_seconds(2000) == p.write_seconds(2000) == 0.5 + 2.0

    def test_asymmetric_read_path(self):
        p = StorageProfile(
            "asym",
            write_bytes_per_s=1000.0,
            write_latency_s=0.5,
            read_bytes_per_s=2000.0,
            read_latency_s=0.1,
        )
        assert p.write_seconds(2000) == 0.5 + 2.0
        assert p.read_seconds(2000) == 0.1 + 1.0

    def test_bad_read_fields_rejected(self):
        with pytest.raises(ValueError):
            StorageProfile("bad", read_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            StorageProfile("bad", read_latency_s=-1.0)


class TestTieredExecution:
    def test_disk_revolve_executes_with_priced_transfers(self):
        l, c_m = 40, 2
        sch = disk_revolve_schedule(l, c_m)
        spec = ChainSpec.homogeneous(l, act_bytes=256 * 1024)
        run = execute(sch, TieredBackend(spec, disk=SD_CARD))

        disk = run.tier("disk")
        mem = run.tier("memory")
        assert disk.writes > 0 and disk.reads > 0
        per_write = SD_CARD.write_seconds(256 * 1024)
        per_read = SD_CARD.read_seconds(256 * 1024)
        assert disk.write_seconds == pytest.approx(disk.writes * per_write)
        assert disk.read_seconds == pytest.approx(disk.reads * per_read)
        # RAM tier carries no profile here, so it moves bytes for free.
        assert mem.write_seconds == 0.0 and mem.read_seconds == 0.0
        assert run.transfer_seconds == pytest.approx(
            disk.transfer_seconds + mem.transfer_seconds
        )
        assert run.transfer_seconds > 0.0
        # Counting (not pricing) still matches the two-level DP, which
        # prices advances plus unit-cost disk transfers.
        counting = execute(sch, TieredBackend(spec))
        d = counting.tier("disk")
        assert counting.forward_cost + d.writes + d.reads == disk_revolve_cost(l, c_m)

    def test_slot_to_tier_mapping(self):
        sch = _sched(
            1,
            DISK_SLOT_BASE + 1,
            snapshot(0),
            snapshot(DISK_SLOT_BASE),
            restore(DISK_SLOT_BASE),
            free(DISK_SLOT_BASE),
            restore(0),
            adjoint(1),
        )
        run = execute(sch, TieredBackend(ChainSpec.homogeneous(1, act_bytes=8)))
        assert run.tier("memory").writes == 1
        assert run.tier("memory").reads == 1
        assert run.tier("disk").writes == 1
        assert run.tier("disk").reads == 1
        assert run.tier("memory").peak_bytes == 8
        assert run.tier("disk").peak_bytes == 8

    def test_faster_disk_costs_less(self):
        sch = disk_revolve_schedule(30, 2)
        spec = ChainSpec.homogeneous(30, act_bytes=1024 * 1024)
        slow = execute(sch, TieredBackend(spec, disk=SD_CARD))
        fast = execute(sch, TieredBackend(spec, disk=EMMC))
        assert fast.transfer_seconds < slow.transfer_seconds

    def test_tier_stats_reach_run_stats(self):
        sch = disk_revolve_schedule(20, 2)
        run = execute(sch, TieredBackend(ChainSpec.homogeneous(20), disk=SD_CARD))
        assert {t.name for t in run.tiers} == {"memory", "disk"}
        with pytest.raises(KeyError):
            run.tier("tape")


class TestTensorBackendResults:
    def test_matches_store_all_reference(self, rng):
        from repro.checkpointing import revolve_schedule

        l = 6
        net = _dense_net(l, rng)
        x, labels = _batch(rng)
        ref_loss, ref_grads, _ = net.train_step(x, labels)
        res = run_schedule(net, revolve_schedule(l, 2), x, labels)
        assert res.loss == ref_loss
        assert set(res.grads) == set(ref_grads)
        for k in ref_grads:
            np.testing.assert_array_equal(res.grads[k], ref_grads[k])
