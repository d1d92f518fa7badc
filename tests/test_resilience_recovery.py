"""Crash recovery: bit-identical resume and the simulated fault timeline."""

import base64
import json

import numpy as np
import pytest

from repro.autodiff import (
    SGD,
    DenseLayer,
    DropoutLayer,
    FitCursor,
    Momentum,
    ReLULayer,
    SequentialNet,
    Trainer,
    TrainerConfig,
    gaussian_blobs,
)
from repro.edge.simulator import DutyCycleSimulator
from repro.errors import PlanningError, SnapshotError
from repro.resilience import (
    FaultInjector,
    FixedIntervalPolicy,
    PoissonFaults,
    TransientDiskFaults,
    fit_with_recovery,
    read_snapshot,
    run_duty_cycle_with_faults,
)


def make_net(seed, dropout=False):
    rng = np.random.default_rng(seed)
    layers = [DenseLayer(6, 12, rng, name="fc0")]
    if dropout:
        layers.append(DropoutLayer(0.2, seed=4, name="drop"))
    layers += [ReLULayer(name="r0"), DenseLayer(12, 3, rng, name="head")]
    return SequentialNet(layers)


def make_trainer(seed=7, opt="momentum", epochs=4, dropout=False):
    net = make_net(seed, dropout=dropout)
    optimizer = (
        SGD(net.layers, lr=0.02) if opt == "sgd" else Momentum(net.layers, lr=0.02)
    )
    return Trainer(net, optimizer, TrainerConfig(epochs=epochs, shuffle_seed=seed))


@pytest.fixture
def data():
    return gaussian_blobs(32, 3, 6, np.random.default_rng(2), separation=6.0)


def losses(trainer):
    return [r.mean_loss for r in trainer.history]


class TestBitIdenticalRecovery:
    @pytest.mark.parametrize("opt", ["momentum", "sgd"])
    def test_crash_mid_epoch_resumes_identically(self, data, opt):
        """The acceptance property: loss trajectory AND final weights of a
        crashed+recovered run equal the uninterrupted run exactly."""
        ref = make_trainer(opt=opt)
        ref.fit(data)

        t = make_trainer(opt=opt)
        report = fit_with_recovery(
            t,
            data,
            policy=FixedIntervalPolicy(3),
            injector=FaultInjector([5, 11]),  # both strike mid-epoch (6 steps/epoch)
        )
        assert report.faults == 2 and report.restores == 2
        assert losses(t) == losses(ref)
        for la, lb in zip(ref.net.layers, t.net.layers):
            for p in la.params:
                assert np.array_equal(la.params[p], lb.params[p])

    def test_crash_with_dropout_layer(self, data):
        """Dropout masks derive from (seed, step), so replayed steps draw
        the same masks and recovery stays exact."""
        ref = make_trainer(dropout=True)
        ref.fit(data)
        t = make_trainer(dropout=True)
        fit_with_recovery(
            t, data, policy=FixedIntervalPolicy(2), injector=FaultInjector([7])
        )
        assert losses(t) == losses(ref)

    def test_crash_before_first_policy_write(self, data):
        """A fault at step 1 rolls back to the step-0 snapshot."""
        ref = make_trainer()
        ref.fit(data)
        t = make_trainer()
        report = fit_with_recovery(
            t, data, policy=FixedIntervalPolicy(100), injector=FaultInjector([1])
        )
        assert report.lost_steps == 1
        assert losses(t) == losses(ref)

    def test_lost_steps_accounting(self, data):
        t = make_trainer()
        report = fit_with_recovery(
            t,
            data,
            policy=FixedIntervalPolicy(4),
            injector=FaultInjector([10]),  # last snapshot at step 8
        )
        assert report.lost_steps == 2
        assert report.final_step == 24  # 4 epochs x 6 steps
        assert report.total_steps_executed == 26

    def test_durable_file_tracks_latest_snapshot(self, tmp_path, data):
        path = tmp_path / "snap.json"
        t = make_trainer()
        fit_with_recovery(
            t,
            data,
            policy=FixedIntervalPolicy(3),
            injector=FaultInjector([5]),
            snapshot_path=path,
        )
        snap = read_snapshot(path)
        assert snap.cursor.step == 24  # last policy-due write

    def test_recovery_reads_back_the_durable_file(self, tmp_path, data):
        """With ``snapshot_path`` set, a crash restores from the file a real
        crash leaves: a file corrupted after the last snapshot write fails
        typed instead of the run resuming from the in-memory copy."""
        path = tmp_path / "snap.json"

        class CorruptThenCrash(FaultInjector):
            def check(self, step):
                if step in self.pending_steps:
                    payload = json.loads(path.read_text())
                    entry = payload["params"][0][2]
                    raw = bytearray(base64.b64decode(entry["data"]))
                    raw[0] ^= 0xFF
                    entry["data"] = base64.b64encode(bytes(raw)).decode("ascii")
                    path.write_text(json.dumps(payload))
                super().check(step)

        with pytest.raises(SnapshotError, match="CRC mismatch"):
            fit_with_recovery(
                make_trainer(),
                data,
                policy=FixedIntervalPolicy(3),
                injector=CorruptThenCrash([5]),  # last write at step 3
                snapshot_path=path,
            )

    def test_transient_disk_failure_keeps_previous_snapshot(self, data):
        """A failed write is survivable: the run falls back further but
        still recovers exactly."""
        ref = make_trainer()
        ref.fit(data)
        t = make_trainer()

        class AlwaysFails(TransientDiskFaults):
            def write_fails(self, rng):
                return True

        report = fit_with_recovery(
            t,
            data,
            policy=FixedIntervalPolicy(3),
            injector=FaultInjector([5]),
            disk_faults=AlwaysFails(),
            disk_rng=np.random.default_rng(0),
        )
        assert report.snapshots == 1  # only the step-0 snapshot survived
        assert report.snapshot_write_failures > 0
        assert report.lost_steps == 5  # rolled all the way back
        assert losses(t) == losses(ref)

    def test_disk_faults_require_rng(self, data):
        with pytest.raises(PlanningError, match="disk_rng"):
            fit_with_recovery(
                make_trainer(),
                data,
                policy=FixedIntervalPolicy(3),
                disk_faults=TransientDiskFaults(0.5),
            )

    def test_fault_storm_gives_up(self, data):
        """Crashing every step with snapshots too sparse to make progress
        must terminate with a typed error, not loop forever."""
        t = make_trainer(epochs=1)
        with pytest.raises(PlanningError, match="fault rate"):
            fit_with_recovery(
                t,
                data,
                policy=FixedIntervalPolicy(1000),
                injector=FaultInjector([1, 2, 3, 4, 5]),
                max_faults=3,
            )

    def test_no_injector_is_plain_fit(self, data):
        ref = make_trainer()
        ref.fit(data)
        t = make_trainer()
        report = fit_with_recovery(t, data, policy=FixedIntervalPolicy(4))
        assert report.faults == 0
        assert losses(t) == losses(ref)


class TestCompressedScheduleRecovery:
    """The compressed slot band composes with crash recovery: a trainer
    whose inner loop replays a ``revolve_zip`` schedule (every snapshot
    slot carries the compressed-band flag) recovers bit-identically."""

    def make_zip_trainer(self, seed=7, epochs=4):
        rng = np.random.default_rng(seed)
        net = SequentialNet(
            [
                DenseLayer(6, 12, rng, name="fc0"),
                ReLULayer(name="r0"),
                DenseLayer(12, 12, rng, name="fc1"),
                ReLULayer(name="r1"),
                DenseLayer(12, 3, rng, name="head"),
            ]
        )
        optimizer = Momentum(net.layers, lr=0.02)
        return Trainer(
            net,
            optimizer,
            TrainerConfig(
                epochs=epochs, shuffle_seed=seed, strategy="revolve_zip", slots=2
            ),
        )

    def test_zip_schedule_is_compressed_and_recomputes(self, data):
        from repro.checkpointing import is_compressed_slot
        from repro.checkpointing.actions import ActionKind

        t = self.make_zip_trainer()
        t.fit(data)
        assert t.schedule_strategy == "revolve_zip"
        snaps = [
            a for a in t._schedule.actions if a.kind is ActionKind.SNAPSHOT
        ]
        assert snaps and all(is_compressed_slot(a.arg) for a in snaps)

    def test_crash_mid_epoch_resumes_identically(self, data):
        """The acceptance property, through the compressed band: the
        crashed+recovered zip run equals the uninterrupted zip run (and
        the zip schedule itself never changes the math)."""
        ref = self.make_zip_trainer()
        ref.fit(data)

        t = self.make_zip_trainer()
        report = fit_with_recovery(
            t,
            data,
            policy=FixedIntervalPolicy(3),
            injector=FaultInjector([5, 11]),
        )
        assert report.faults == 2 and report.restores == 2
        assert losses(t) == losses(ref)
        for la, lb in zip(ref.net.layers, t.net.layers):
            for p in la.params:
                assert np.array_equal(la.params[p], lb.params[p])

    def test_snapshot_roundtrip_mid_run(self, tmp_path, data):
        """A TrainingSnapshot written mid-run under the zip schedule
        reads back and carries the exact resume cursor."""
        path = tmp_path / "snap.json"
        t = self.make_zip_trainer()
        fit_with_recovery(
            t,
            data,
            policy=FixedIntervalPolicy(3),
            injector=FaultInjector([5]),
            snapshot_path=path,
        )
        snap = read_snapshot(path)
        assert snap.cursor.step == 24  # last policy-due write


class TestTrainerResume:
    def test_on_step_sees_every_global_step(self, data):
        t = make_trainer()
        captured = []
        t.fit(data, on_step=lambda c, loss: captured.append(c))
        assert [c.step for c in captured] == list(range(1, 25))
        assert captured[-1].epoch == 3 and captured[-1].batch == 6

    def test_mid_epoch_cursor_resume_matches_unbroken_run(self, data):
        """Resuming from a raw cursor (no snapshot machinery) at a batch
        boundary inside an epoch reproduces the unbroken history, because
        the cursor carries the partial-epoch loss accumulators."""
        ref = make_trainer()
        ref.fit(data)

        t = make_trainer()
        stop_at = 9  # mid-epoch 1
        grabbed = {}

        class Stop(Exception):
            pass

        def hook(c, loss):
            if c.step == stop_at:
                grabbed["cursor"] = c
                raise Stop

        with pytest.raises(Stop):
            t.fit(data, on_step=hook)
        t.fit(data, cursor=grabbed["cursor"])
        assert losses(t) == losses(ref)
        for la, lb in zip(ref.net.layers, t.net.layers):
            for p in la.params:
                assert np.array_equal(la.params[p], lb.params[p])

    def test_per_epoch_shuffle_is_pure_function_of_epoch(self, data):
        """Epoch k's batch order depends only on (shuffle_seed, k): two
        runs that diverge in epoch *count* still agree per epoch."""
        a = make_trainer(epochs=2)
        b = make_trainer(epochs=4)
        a.fit(data)
        b.fit(data)
        assert losses(a) == losses(b)[:2]

    def test_cursor_validation(self):
        with pytest.raises(ValueError):
            FitCursor(epoch=-1)
        with pytest.raises(ValueError):
            FitCursor(step=-3)


class TestSimulatedTimeline:
    def test_fault_free_has_only_snapshot_overhead(self):
        res = run_duty_cycle_with_faults(
            1000.0,
            PoissonFaults(mtbf_seconds=1e12),
            np.random.default_rng(0),
            interval_seconds=100.0,
            snapshot_seconds=5.0,
        )
        assert res.crashes == 0
        # 10 segments, final one skips the write
        assert res.snapshot_overhead_seconds == pytest.approx(45.0)
        assert res.wall_seconds == pytest.approx(1045.0)
        assert res.overhead_factor == pytest.approx(1.045)

    def test_crashes_lose_and_recompute_work(self):
        res = run_duty_cycle_with_faults(
            20_000.0,
            PoissonFaults(mtbf_seconds=2000.0),
            np.random.default_rng(1),
            interval_seconds=500.0,
            snapshot_seconds=5.0,
            restart_seconds=30.0,
        )
        assert res.crashes > 0
        assert res.lost_compute_seconds > 0
        assert res.restart_overhead_seconds == res.crashes * 30.0
        assert res.wall_seconds > 20_000.0

    def test_duty_cycle_stretches_wall_time(self):
        sim = DutyCycleSimulator(np.random.default_rng(4))
        with_sim = run_duty_cycle_with_faults(
            5000.0,
            PoissonFaults(mtbf_seconds=1e12),
            np.random.default_rng(2),
            interval_seconds=500.0,
            snapshot_seconds=2.0,
            sim=sim,
        )
        assert with_sim.preemptions > 0
        assert with_sim.wall_seconds > 5000.0 + 2.0 * 9

    def test_deterministic_under_seed(self):
        run = lambda: run_duty_cycle_with_faults(  # noqa: E731
            10_000.0,
            PoissonFaults(mtbf_seconds=1500.0),
            np.random.default_rng(9),
            interval_seconds=300.0,
            snapshot_seconds=4.0,
        )
        assert run() == run()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_duty_cycle_with_faults(
                -1.0,
                PoissonFaults(),
                np.random.default_rng(0),
                interval_seconds=10.0,
                snapshot_seconds=1.0,
            )
        with pytest.raises(ValueError):
            run_duty_cycle_with_faults(
                10.0,
                PoissonFaults(),
                np.random.default_rng(0),
                interval_seconds=0.0,
                snapshot_seconds=1.0,
            )
