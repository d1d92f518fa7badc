"""Topo expansion, dedup, cycle guard, serial/parallel equivalence."""

import pytest

from repro import lab, obs
from repro.errors import LabError

import repro.experiments  # noqa: F401


def _ascii(doc):
    return f"{sorted(doc.items())}\n"


def _cheap(name, deps=(), fingerprint=None):
    return lab.ExperimentSpec(
        name=name,
        title=name,
        compute=lambda params, inputs: {"n": name, "inputs": len(inputs)},
        renderers={"ascii": _ascii},
        deps=deps,
        default_units=(lab.UnitDef({}, ((f"{name}.txt", "ascii"),)),),
        code_fingerprint=fingerprint or (name.ljust(64, "0")[:64]),
    )


class TestExpand:
    def test_deps_precede_dependents(self):
        order = lab.expand_units(lab.default_units(["summary"]))
        names = [u.spec for u in order]
        assert names[-1] == "summary"
        assert set(names[:-1]) == {s for s, _ in lab.get_spec("summary").deps}

    def test_dedup_by_key(self):
        units = lab.default_units(["table1"]) + lab.default_units(["table1"])
        assert len(lab.expand_units(units)) == 2  # ours + paper, once each

    def test_explicit_outputs_win_over_dep_placeholder(self):
        # figure1(b, paper) is both a summary dep and a default unit with files
        order = lab.expand_units(lab.default_units(["figure1", "summary"]))
        fig_b = [
            u for u in order
            if u.spec == "figure1" and u.params["panel"] == "b"
        ]
        assert len(fig_b) == 1 and fig_b[0].outputs

    def test_full_default_expansion_is_stable(self):
        a = [(u.spec, lab.canonical_params(u.params)) for u in
             lab.expand_units(lab.default_units())]
        b = [(u.spec, lab.canonical_params(u.params)) for u in
             lab.expand_units(lab.default_units())]
        unique_defaults = {
            (u.spec, lab.canonical_params(u.params))
            for u in lab.default_units()
        }
        assert a == b and unique_defaults <= set(a)
        assert len(a) >= 25  # the PR-9 floor: default units only accrete

    def test_cycle_guard(self):
        lab.register(_cheap("t_cyc_a"))
        lab.register(_cheap("t_cyc_b", deps=(("t_cyc_a", {}),)))
        lab.unregister("t_cyc_a")
        lab.register(_cheap("t_cyc_a", deps=(("t_cyc_b", {}),)))
        try:
            with pytest.raises(LabError, match="cycle"):
                lab.expand_units([lab.Unit("t_cyc_a")])
        finally:
            lab.unregister("t_cyc_a")
            lab.unregister("t_cyc_b")


class TestCompute:
    def test_normalize_rejects_nan(self):
        from repro.lab.runner import normalize_payload

        assert normalize_payload({"t": (1, 2)}) == {"t": [1, 2]}
        with pytest.raises(LabError):
            normalize_payload({"x": float("nan")})
        # inf is legal ("never page"): it survives the strict-JSON round trip.
        assert normalize_payload({"x": (float("inf"), -float("inf"))}) == {
            "x": [float("inf"), -float("inf")]
        }

    def test_compute_payload_resolves_deps(self):
        payload = lab.compute_payload("summary")
        assert [s["spec"] for s in payload["sections"]] == [
            s for s, _ in lab.get_spec("summary").deps
        ]

    def test_compute_payload_validates_params(self):
        with pytest.raises(LabError):
            lab.compute_payload("figure1", {"panel": "z"})


class TestRunner:
    def test_outcome_order_matches_expansion(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units()
        report = lab.run_units(units, store)
        expected = [u.spec for u in lab.expand_units(units)]
        assert [o.spec for o in report.outcomes] == expected

    def test_dep_only_units_have_no_outputs(self, tmp_path):
        report = lab.run_units(lab.default_units(["summary"]),
                               lab.ArtifactStore(tmp_path))
        assert all(not o.outputs for o in report.outcomes[:-1])
        assert report.outcomes[-1].outputs == ("summary.txt",)

    def test_metrics_counters(self, tmp_path):
        metrics = obs.get_metrics()
        units = lab.default_units(["sensitivity"])
        store = lab.ArtifactStore(tmp_path)
        h0 = metrics.counter("lab.cache.hits").value
        m0 = metrics.counter("lab.cache.misses").value
        lab.run_units(units, store)
        lab.run_units(units, store)
        assert metrics.counter("lab.cache.misses").value == m0 + 1
        assert metrics.counter("lab.cache.hits").value == h0 + 1

    def test_summary_line(self, tmp_path):
        report = lab.run_units(lab.default_units(["sensitivity"]),
                               lab.ArtifactStore(tmp_path), jobs=2)
        assert report.summary_line() == (
            "lab cache: 0 hits / 1 misses (1 computed, jobs=2)"
        )

    def test_parallel_serial_byte_identical(self, tmp_path):
        serial = lab.ArtifactStore(tmp_path / "serial")
        para = lab.ArtifactStore(tmp_path / "para")
        units = lab.default_units(["table1", "figure1", "section5"])
        r1 = lab.run_units(units, serial, jobs=1)
        r2 = lab.run_units(units, para, jobs=4)
        assert [o.key for o in r1.outcomes] == [o.key for o in r2.outcomes]
        files = sorted(
            p.relative_to(serial.root)
            for p in serial.root.rglob("*")
            if p.is_file() and "manifests" not in p.parts
        )
        assert files
        for rel in files:
            assert (para.root / rel).read_bytes() == (serial.root / rel).read_bytes()

    def test_parallel_warm_run_hits(self, tmp_path):
        store = lab.ArtifactStore(tmp_path)
        units = lab.default_units(["table1", "figure1"])
        lab.run_units(units, store, jobs=4)
        report = lab.run_units(units, store, jobs=4)
        assert (report.hits, report.misses) == (len(report.outcomes), 0)

    def test_default_jobs_positive(self):
        assert lab.default_jobs() >= 1

    @pytest.mark.usefixtures("fresh_schedule_cache")
    def test_forced_rerun_uses_current_planner(self, tmp_path):
        """``force=True`` recomputes from today's strategies, never old plans."""
        from repro.checkpointing import clear_schedule_cache, get_strategy, register
        from repro.checkpointing.strategies import JointStrategy

        unit = lab.Unit("ablation", {
            "lengths": [18, 34], "slot_budgets": [3, 5],
            "strategies": ["joint_energy"],
        })
        store = lab.ArtifactStore(tmp_path / "old")
        original = get_strategy("joint_energy")
        key = lab.run_units([unit], store).outcomes[-1].key
        stale = store.load_payload(key)
        try:
            register(JointStrategy("joint_energy", write_cost=5.0, read_cost=5.0),
                     overwrite=True)
            clear_schedule_cache()
            lab.run_units([unit], store, force=True)
            clear_schedule_cache()
            fresh_store = lab.ArtifactStore(tmp_path / "fresh")
            lab.run_units([unit], fresh_store)
            assert store.load_payload(key) == fresh_store.load_payload(key)
            assert fresh_store.load_payload(key) != stale
        finally:
            register(original, overwrite=True)
            clear_schedule_cache()
