"""Durable snapshots: exact round-trips, typed failures, policies."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import (
    SGD,
    DenseLayer,
    FitCursor,
    Momentum,
    ReLULayer,
    SequentialNet,
    Trainer,
    TrainerConfig,
    gaussian_blobs,
)
from repro.errors import SnapshotError
from repro.resilience import (
    FixedIntervalPolicy,
    capture_snapshot,
    read_snapshot,
    restore_snapshot,
    snapshot_from_json,
    snapshot_to_json,
    write_snapshot,
    young_daly_interval,
)
from repro.resilience.snapshot import _decode_array, _encode_array


def make_net(seed, width=10):
    rng = np.random.default_rng(seed)
    return SequentialNet(
        [
            DenseLayer(6, width, rng, name="fc0"),
            ReLULayer(name="r0"),
            DenseLayer(width, 3, rng, name="head"),
        ]
    )


def make_trainer(seed=7, opt="momentum", epochs=3):
    net = make_net(seed)
    optimizer = (
        SGD(net.layers, lr=0.02) if opt == "sgd" else Momentum(net.layers, lr=0.02)
    )
    return Trainer(net, optimizer, TrainerConfig(epochs=epochs, shuffle_seed=seed))


@pytest.fixture
def data():
    return gaussian_blobs(30, 3, 6, np.random.default_rng(2), separation=6.0)


class TestArrayCodec:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, width=32), min_size=0, max_size=30),
        st.sampled_from(["float64", "float32"]),
    )
    def test_round_trip_exact(self, values, dtype):
        a = np.array(values, dtype=np.float64).astype(dtype)
        b = _decode_array(_encode_array(a), "t")
        assert b.dtype == a.dtype and b.shape == a.shape
        assert np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62), min_size=0, max_size=20))
    def test_round_trip_exact_int(self, values):
        a = np.array(values, dtype=np.int64)
        assert np.array_equal(_decode_array(_encode_array(a), "t"), a)

    def test_round_trip_preserves_2d_shape(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert np.array_equal(_decode_array(_encode_array(a), "t"), a)

    def test_truncated_payload_raises(self):
        enc = _encode_array(np.ones(8))
        enc["shape"] = [16]  # claims more elements than the payload holds
        with pytest.raises(SnapshotError, match="truncated"):
            _decode_array(enc, "t")

    def test_garbage_base64_raises(self):
        enc = _encode_array(np.ones(4))
        enc["data"] = "!!!not-base64!!!"
        with pytest.raises(SnapshotError, match="undecodable"):
            _decode_array(enc, "t")

    def test_missing_field_raises(self):
        with pytest.raises(SnapshotError, match="malformed"):
            _decode_array({"dtype": "float64"}, "t")


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("opt", ["momentum", "sgd"])
    def test_json_round_trip_bit_exact(self, opt, data):
        t = make_trainer(opt=opt)
        t.fit(data)
        snap = capture_snapshot(t, FitCursor(epoch=3, step=t._step))
        back = snapshot_from_json(snapshot_to_json(snap))
        assert back.cursor == snap.cursor
        assert back.shuffle_seed == snap.shuffle_seed
        assert back.optimizer_type == snap.optimizer_type
        assert set(back.params) == set(snap.params)
        for k in snap.params:
            assert np.array_equal(back.params[k], snap.params[k])
        assert back.history == snap.history

    def test_restore_then_continue_identical(self, data):
        """serialize -> deserialize -> continue reproduces the unbroken run."""
        ref = make_trainer(epochs=6)
        ref.fit(data)

        half = make_trainer(epochs=3)
        half.fit(data)
        snap = snapshot_from_json(
            snapshot_to_json(capture_snapshot(half, FitCursor(epoch=3, step=half._step)))
        )
        resumed = make_trainer(epochs=6)  # same seeds, fresh weights
        cursor = restore_snapshot(resumed, snap)
        resumed.fit(data, cursor=cursor)
        assert [r.mean_loss for r in resumed.history] == [
            r.mean_loss for r in ref.history
        ]
        for la, lb in zip(ref.net.layers, resumed.net.layers):
            for p in la.params:
                assert np.array_equal(la.params[p], lb.params[p])

    def test_file_round_trip_and_atomicity(self, tmp_path, data):
        t = make_trainer()
        t.fit(data)
        snap = capture_snapshot(t, FitCursor(epoch=3, step=t._step))
        path = tmp_path / "snap.json"
        n = write_snapshot(path, snap)
        assert n == path.stat().st_size
        assert not list(tmp_path.glob("*.tmp"))  # rename happened
        back = read_snapshot(path)
        assert back.cursor == snap.cursor

    def test_failed_write_leaves_no_temp_file(self, tmp_path, data, monkeypatch):
        """A write that raises keeps the previous snapshot and leaves no
        ``.tmp`` next to it."""
        import os

        t = make_trainer()
        t.fit(data)
        path = tmp_path / "snap.json"
        write_snapshot(path, capture_snapshot(t, FitCursor(epoch=3, step=t._step)))
        before = path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot(path, capture_snapshot(t, FitCursor(epoch=4, step=t._step)))
        assert not list(tmp_path.glob("*.tmp"))
        assert path.read_text() == before

    def test_missing_file_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(tmp_path / "nope.json")


class TestCorruption:
    def _snapshot_text(self, data):
        t = make_trainer()
        t.fit(data)
        return snapshot_to_json(capture_snapshot(t, FitCursor(epoch=3, step=t._step)))

    def test_flipped_payload_byte_fails_crc(self, data):
        payload = json.loads(self._snapshot_text(data))
        blob = payload["params"][0][2]["data"]
        payload["params"][0][2]["data"] = blob[:10] + ("A" if blob[10] != "A" else "B") + blob[11:]
        with pytest.raises(SnapshotError, match="CRC"):
            snapshot_from_json(json.dumps(payload))

    def test_truncated_file_raises(self, data):
        text = self._snapshot_text(data)
        with pytest.raises(SnapshotError):
            snapshot_from_json(text[: len(text) // 2])

    def test_wrong_version_raises(self, data):
        payload = json.loads(self._snapshot_text(data))
        payload["version"] = 999
        with pytest.raises(SnapshotError, match="version"):
            snapshot_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "key", ["cursor", "shuffle_seed", "params", "optimizer", "history", "crc32"]
    )
    def test_missing_section_raises(self, data, key):
        payload = json.loads(self._snapshot_text(data))
        del payload[key]
        with pytest.raises(SnapshotError, match=key):
            snapshot_from_json(json.dumps(payload))

    def test_not_json_raises(self):
        with pytest.raises(SnapshotError, match="invalid snapshot JSON"):
            snapshot_from_json("}{")


class TestRestoreValidation:
    def test_seed_mismatch(self, data):
        t = make_trainer()
        t.fit(data)
        snap = capture_snapshot(t, FitCursor(step=t._step))
        other = make_net(7)
        wrong = Trainer(
            other, Momentum(other.layers, lr=0.02), TrainerConfig(shuffle_seed=99)
        )
        with pytest.raises(SnapshotError, match="shuffle_seed"):
            restore_snapshot(wrong, snap)

    def test_optimizer_mismatch(self, data):
        t = make_trainer(opt="sgd")
        t.fit(data)
        snap = capture_snapshot(t, FitCursor(step=t._step))
        with pytest.raises(SnapshotError, match="optimizer"):
            restore_snapshot(make_trainer(opt="momentum"), snap)

    def test_architecture_mismatch(self, data):
        t = make_trainer()
        t.fit(data)
        snap = capture_snapshot(t, FitCursor(step=t._step))
        wider = make_net(7, width=16)
        wrong = Trainer(
            wider, Momentum(wider.layers, lr=0.02), TrainerConfig(shuffle_seed=7)
        )
        with pytest.raises(SnapshotError, match="shape"):
            restore_snapshot(wrong, snap)


class TestPolicies:
    def test_young_daly_formula(self):
        assert young_daly_interval(7200.0, 4.0) == pytest.approx(240.0)
        with pytest.raises(ValueError):
            young_daly_interval(0.0, 4.0)

    def test_fixed_interval_due(self):
        p = FixedIntervalPolicy(10)
        assert not p.due(9, 0)
        assert p.due(10, 0)
        assert not p.due(15, 10)
