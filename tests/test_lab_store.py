"""Content-addressed store and cache invalidation semantics."""

import json

import pytest

from repro import lab
from repro.errors import ArtifactError

import repro.experiments  # noqa: F401


def _ascii(doc):
    return f"v={doc['v']}\n"


@pytest.fixture
def spec_pair():
    """Two cheap registered specs with controllable fingerprints."""
    def make(name, fingerprint):
        return lab.ExperimentSpec(
            name=name,
            title=name,
            compute=lambda params, inputs: {"v": params["x"] * 2},
            renderers={"ascii": _ascii},
            params=(lab.Param("x", int, default=1),),
            default_units=(lab.UnitDef({}, ((f"{name}.txt", "ascii"),)),),
            code_fingerprint=fingerprint,
        )

    a = lab.register(make("t_store_a", "a" * 64))
    b = lab.register(make("t_store_b", "b" * 64))
    yield a, b
    lab.unregister("t_store_a")
    lab.unregister("t_store_b")


class TestStore:
    def test_payload_roundtrip(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        store.save_payload("k" * 64, "s", {"x": 1}, {"v": [1, 2]})
        assert store.has_payload("k" * 64)
        assert store.load_payload("k" * 64) == {"v": [1, 2]}

    def test_missing_payload_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError):
            lab.ArtifactStore(tmp_path).load_payload("0" * 64)

    def test_malformed_payload_is_typed(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        store.save_payload("k" * 64, "s", {}, {"v": 1})
        store.cache_path("k" * 64).write_text("{not json")
        with pytest.raises(ArtifactError):
            store.load_payload("k" * 64)

    def test_integrity_check_catches_tamper(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        path = store.save_payload("k" * 64, "s", {}, {"v": 1})
        doc = json.loads(path.read_text())
        doc["payload"]["v"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError):
            store.load_payload("k" * 64)

    def test_wrong_key_is_typed(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        src = store.save_payload("k" * 64, "s", {}, {"v": 1})
        store.cache_path("j" * 64).parent.mkdir(parents=True, exist_ok=True)
        store.cache_path("j" * 64).write_text(src.read_text())
        with pytest.raises(ArtifactError):
            store.load_payload("j" * 64)

    def test_artifact_write_skips_identical(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        _, changed1 = store.write_artifact("a.txt", "hello\n")
        _, changed2 = store.write_artifact("a.txt", "hello\n")
        _, changed3 = store.write_artifact("a.txt", "bye\n")
        assert (changed1, changed2, changed3) == (True, False, True)

    def test_no_tmp_files_left(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        store.save_payload("k" * 64, "s", {}, {"v": 1})
        store.write_artifact("a.txt", "x\n")
        store.write_manifest("a", {"k": 1})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_writers_of_one_file(self, tmp_path):
        """Threads saving one payload key never lose a temp file."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        store = lab.ArtifactStore(tmp_path)
        payload = {"version": 1, "args": list(range(64))}

        def save_many(_):
            for _ in range(200):
                store.save_payload("d" * 64, "s", {}, payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(save_many, range(4), timeout=60))  # re-raises writer errors
        finally:
            sys.setswitchinterval(interval)
        assert store.load_payload("d" * 64) == payload
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os

        store = lab.ArtifactStore(tmp_path)

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            store.write_artifact("a.txt", "x\n")
        assert not list(tmp_path.rglob("*.tmp"))


class TestCacheSemantics:
    def test_second_run_hits(self, tmp_path, spec_pair):
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units(["t_store_a"])
        assert lab.run_units(units, store).misses == 1
        report = lab.run_units(units, store)
        assert (report.hits, report.misses) == (1, 0)

    def test_param_change_is_miss_elsewhere(self, tmp_path, spec_pair):
        store = lab.ArtifactStore(tmp_path)
        lab.run_units([lab.Unit("t_store_a", {"x": 1})], store)
        report = lab.run_units(
            [lab.Unit("t_store_a", {"x": 1}), lab.Unit("t_store_a", {"x": 2})], store
        )
        assert (report.hits, report.misses) == (1, 1)

    def test_fingerprint_change_invalidates_only_that_spec(self, tmp_path, spec_pair):
        a, b = spec_pair
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units(["t_store_a", "t_store_b"])
        assert lab.run_units(units, store).misses == 2

        lab.unregister("t_store_a")
        patched = lab.ExperimentSpec(
            name=a.name, title=a.title, compute=a.compute,
            renderers=a.renderers, params=a.params,
            default_units=a.default_units, code_fingerprint="c" * 64,
        )
        lab.register(patched)
        report = lab.run_units(lab.default_units(["t_store_a", "t_store_b"]), store)
        by_spec = {o.spec: o.status for o in report.outcomes}
        assert by_spec == {"t_store_a": "miss", "t_store_b": "hit"}

    def test_corrupted_payload_recomputes(self, tmp_path, spec_pair):
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units(["t_store_a", "t_store_b"])
        first = lab.run_units(units, store)
        store.cache_path(first.outcomes[0].key).write_text("garbage")
        report = lab.run_units(units, store)
        by_spec = {o.spec: o.status for o in report.outcomes}
        assert by_spec == {"t_store_a": "corrupt", "t_store_b": "hit"}
        # and the recompute healed the cache
        assert lab.run_units(units, store).hits == 2

    def test_tampered_artifact_rerenders_without_recompute(self, tmp_path, spec_pair):
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units(["t_store_a"])
        lab.run_units(units, store)
        store.artifact_path("t_store_a.txt").write_text("vandalized\n")
        report = lab.run_units(units, store)
        assert (report.hits, report.computed) == (1, 0)
        assert store.artifact_path("t_store_a.txt").read_text() == "v=2\n"

    def test_force_recomputes_everything(self, tmp_path, spec_pair):
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units(["t_store_a", "t_store_b"])
        lab.run_units(units, store)
        report = lab.run_units(units, store, force=True)
        assert (report.hits, report.misses) == (0, 2)

    def test_store_none_always_computes(self, spec_pair):
        report = lab.run_units([lab.Unit("t_store_a", {"x": 3})])
        assert report.misses == 1
        assert report.outcomes[0].written == ()
