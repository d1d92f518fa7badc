"""Campaign telemetry: runlog capture, aggregation, runner + CLI wiring."""

import json
import time

import pytest

from repro import lab, obs
from repro.cli import main
from repro.errors import LabError
from repro.obs import aggregate
from repro.obs.runlog import (
    RunlogTracer,
    UnitCapture,
    read_unit_runlog,
    write_unit_runlog,
)

import repro.experiments  # noqa: F401


def _ascii(doc):
    return f"{sorted(doc.items())}\n"


def _tele_spec(name, deps=(), sleep_s=0.0):
    """A deterministic spec: one explicit span, one event, one counter.

    Custom specs keep the serial-vs-parallel telemetry comparison exact:
    real specs hit the process-memoized schedule/program caches, whose
    span and counter counts depend on which process computed what first.
    """

    def compute(params, inputs):
        tracer = obs.get_tracer()
        with tracer.span("work", category="test", spec=name):
            if sleep_s:
                time.sleep(sleep_s)
            obs.get_metrics().counter(f"test.{name}.calls").inc()
            tracer.event("tick", category="test")
        return {"n": name, "inputs": len(inputs)}

    return lab.ExperimentSpec(
        name=name,
        title=name,
        compute=compute,
        renderers={"ascii": _ascii},
        deps=deps,
        default_units=(lab.UnitDef({}, ((f"{name}.txt", "ascii"),)),),
        code_fingerprint=name.ljust(64, "0")[:64],
    )


@pytest.fixture
def tele_specs():
    """Three registered custom specs: a <- b, plus independent c.

    a and b sleep so the a->b chain's measured wall time dominates c's
    by orders of magnitude: the critical-path assertion must not hinge
    on scheduler noise between near-zero-cost units.
    """
    names = ("t_cam_a", "t_cam_b", "t_cam_c")
    lab.register(_tele_spec("t_cam_a", sleep_s=0.05))
    lab.register(_tele_spec("t_cam_b", deps=(("t_cam_a", {}),), sleep_s=0.05))
    lab.register(_tele_spec("t_cam_c"))
    try:
        yield names
    finally:
        for name in names:
            lab.unregister(name)


class TestRunlogTracer:
    def test_hot_paths_disabled_but_spans_buffered(self):
        t = RunlogTracer()
        assert t.enabled is False  # per-action instrumentation stays off
        with t.span("phase", category="lab", x=1):
            t.event("tick", category="lab")
        assert [s.name for s in t.spans()] == ["phase"]
        assert [e.name for e in t.events()] == ["tick"]


class TestUnitCapture:
    def test_record_profile_and_roundtrip(self, tmp_path):
        with UnitCapture(key="k1", spec="demo", params={"x": 1},
                         parents=("p1",)) as cap:
            tracer = obs.get_tracer()
            assert isinstance(tracer, RunlogTracer)
            with tracer.span("work", category="test"):
                time.sleep(0.01)
            obs.get_metrics().counter("test.capture.calls").inc(2)
        profile = cap.profile
        assert profile["wall_s"] >= 0.01
        assert profile["max_rss_kb"] > 0
        assert {"user_cpu_s", "sys_cpu_s", "pid"} <= set(profile)
        header = cap.record["unit"]
        assert header["key"] == "k1" and header["parents"] == ["p1"]
        assert header["error"] is None
        names = [s["name"] for s in cap.record["spans"]]
        assert "work" in names and "unit" in names
        delta = cap.record["metric_deltas"]["test.capture.calls"]
        assert delta == {"kind": "counter", "delta": 2}

        path = write_unit_runlog(tmp_path, cap.record)
        assert path.name == "k1.jsonl"
        back = read_unit_runlog(path)
        assert back["unit"]["spec"] == "demo"
        assert [s["name"] for s in back["spans"]] == names
        assert back["metric_deltas"]["test.capture.calls"]["delta"] == 2

    def test_restores_previous_tracer_on_error(self):
        before = obs.get_tracer()
        with pytest.raises(RuntimeError):
            with UnitCapture(key="k2", spec="demo") as cap:
                raise RuntimeError("boom")
        assert obs.get_tracer() is before
        assert cap.record["unit"]["error"] == "RuntimeError"

    def test_read_rejects_headerless_file(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"type": "span", "name": "s"}\n')
        with pytest.raises(ValueError, match="unit header"):
            read_unit_runlog(p)


class TestHistogramPercentiles:
    def test_percentiles_exact_under_cap(self):
        h = obs.Metrics().histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.percentile(0) == 1.0 and h.percentile(100) == 100.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_snapshot_and_reset_carry_percentiles(self):
        m = obs.Metrics()
        for v in (1.0, 2.0, 3.0):
            m.histogram("h").observe(v)
        snap = m.snapshot()["h"]
        assert snap["p50"] == 2.0 and snap["p95"] == pytest.approx(2.9)
        m.reset()
        assert m.snapshot()["h"]["p50"] == 0.0

    def test_sample_cap_bounds_memory(self):
        h = obs.Metrics().histogram("h")
        for v in range(2 * h.SAMPLE_CAP):
            h.observe(float(v))
        assert len(h._samples) == h.SAMPLE_CAP
        assert h.count == 2 * h.SAMPLE_CAP


class TestSummaryTables:
    def test_counters_table_includes_cache_families(self):
        m = obs.Metrics()
        m.counter("test.random").inc()
        text = obs.summary(obs.Tracer(), m)
        for family in ("lab.cache.misses", "ckpt.schedule_cache.hits"):
            assert family in text

    def test_histogram_table_has_percentile_columns(self):
        m = obs.Metrics()
        for v in (1.0, 9.0):
            m.histogram("lab.compute_seconds").observe(v)
        text = obs.summary(obs.Tracer(), m)
        assert "p50" in text and "p95" in text
        assert "lab.compute_seconds" in text


class TestWallTimeFix:
    def test_pooled_wall_time_excludes_queue_wait(self):
        # Four 0.25 s units on two workers: all four are submitted at
        # once, so the old submit->result measurement would charge the
        # second pair ~0.5 s.  Worker-measured wall stays ~0.25 s.
        names = [f"t_wall_{i}" for i in range(4)]
        for name in names:
            lab.register(_tele_spec(name, sleep_s=0.25))
        try:
            report = lab.run_units(
                [lab.Unit(n) for n in names], None, jobs=2
            )
        finally:
            for name in names:
                lab.unregister(name)
        walls = [o.wall_time_s for o in report.outcomes]
        assert all(w >= 0.24 for w in walls)
        assert max(walls) < 0.4, f"queue wait leaked into wall times: {walls}"


class TestParentSpanFix:
    def test_pool_path_records_collect_not_unit(self, tele_specs, tmp_path):
        units = [lab.Unit(n) for n in tele_specs]
        with obs.tracing() as tracer:
            lab.run_units(units, lab.ArtifactStore(tmp_path), jobs=2)
        lab_spans = [s for s in tracer.spans() if s.category == "lab"]
        assert not [s for s in lab_spans if s.name == "unit"]
        assert [s for s in lab_spans if s.name == "collect"]

    def test_serial_path_keeps_unit_spans(self, tele_specs, tmp_path):
        units = [lab.Unit(n) for n in tele_specs]
        with obs.tracing() as tracer:
            lab.run_units(units, lab.ArtifactStore(tmp_path), jobs=1)
        unit_spans = [
            s for s in tracer.spans()
            if s.category == "lab" and s.name == "unit"
        ]
        assert len(unit_spans) == len(units)


def _run_campaign(tele_specs, root, jobs):
    units = [
        lab.Unit(n, outputs=((f"{n}.txt", "ascii"),)) for n in tele_specs
    ]
    return lab.run_units(
        units, lab.ArtifactStore(root), jobs=jobs, telemetry=True
    )


class TestTelemetryRuns:
    def test_telemetry_requires_store(self, tele_specs):
        with pytest.raises(LabError, match="telemetry"):
            lab.run_units([lab.Unit(tele_specs[0])], None, telemetry=True)

    def test_serial_and_parallel_telemetry_equivalent(self, tele_specs, tmp_path):
        r1 = _run_campaign(tele_specs, tmp_path / "serial", jobs=1)
        r2 = _run_campaign(tele_specs, tmp_path / "para", jobs=2)
        c1 = aggregate.load_campaign(r1.telemetry_dir)
        c2 = aggregate.load_campaign(r2.telemetry_dir)
        assert len(c1.units) == len(c2.units) == 3

        def shape(campaign):
            spans = {}
            counters = {}
            for u in campaign.units:
                spans[u.spec] = sorted(s["name"] for s in u.spans)
                for name, d in u.metric_deltas.items():
                    if name.startswith("test."):
                        counters[name] = counters.get(name, 0) + d["delta"]
            return spans, counters

        spans1, counters1 = shape(c1)
        spans2, counters2 = shape(c2)
        assert spans1 == spans2  # same span names per spec
        assert counters1 == counters2 == {
            f"test.{n}.calls": 1 for n in tele_specs
        }
        # lab-level counter deltas in campaign.json agree too
        for name in ("lab.cache.hits", "lab.cache.misses", "lab.cache.corrupt"):
            assert c1.meta["counters"][name] == c2.meta["counters"][name]

    def test_merged_trace_one_lane_per_worker(self, tele_specs, tmp_path):
        report = _run_campaign(tele_specs, tmp_path, jobs=2)
        campaign = aggregate.load_campaign(tmp_path)
        doc = json.loads(json.dumps(aggregate.merge_chrome_trace(campaign)))
        worker_pids = {u.pid for u in campaign.units}
        span_pids = {
            e["pid"] for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "unit"
        }
        assert span_pids == worker_pids
        lane_names = {
            e["args"]["name"]
            for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert lane_names == {f"worker {p}" for p in worker_pids} | {"campaign"}
        unit_spans = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "unit"
        ]
        assert len(unit_spans) == len(report.outcomes)
        for span in unit_spans:
            assert {"wall_s", "user_cpu_s", "sys_cpu_s", "max_rss_kb"} <= set(
                span["args"]
            )

    def test_campaign_summary_and_report(self, tele_specs, tmp_path):
        _run_campaign(tele_specs, tmp_path, jobs=2)
        campaign = aggregate.load_campaign(tmp_path)
        summ = aggregate.campaign_summary(campaign)
        assert summ["campaign"]["computed"] == 3
        assert summ["campaign"]["jobs"] == 2
        assert 0 < summ["campaign"]["occupancy"] <= 1
        # b depends on a, so the critical path chains both specs
        chain = [step["spec"] for step in summ["campaign"]["critical_path"]]
        assert chain[-1] == "t_cam_b" and "t_cam_a" in chain
        assert set(summ["specs"]) == set(tele_specs)
        text = aggregate.render_report(summ)
        assert "Campaign report" in text and "critical path" in text
        assert "lab cache" in text and "t_cam_b" in text

    def test_manifest_telemetry_refs(self, tele_specs, tmp_path):
        _run_campaign(tele_specs, tmp_path, jobs=1)
        store = lab.ArtifactStore(tmp_path)
        seen = 0
        for _stem, doc in store.manifests():
            ref = doc["telemetry"]
            assert (tmp_path / ref["runlog"]).is_file()
            assert ref["profile"]["wall_s"] > 0
            seen += 1
        assert seen == 3

    def test_disabled_run_writes_nothing(self, tele_specs, tmp_path):
        units = [
            lab.Unit(n, outputs=((f"{n}.txt", "ascii"),)) for n in tele_specs
        ]
        report = lab.run_units(units, lab.ArtifactStore(tmp_path))
        assert report.telemetry_dir is None
        assert not (tmp_path / "telemetry").exists()
        docs = list(lab.ArtifactStore(tmp_path).manifests())
        assert len(docs) == 3
        assert all("telemetry" not in doc for _s, doc in docs)


class TestCli:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    def test_all_telemetry_then_report(self, capsys, tmp_path, tele_specs):
        outdir = str(tmp_path / "art")
        out = self._run(
            capsys, "run", "t_cam_b", "--outdir", outdir, "--telemetry"
        )
        assert f"telemetry: {outdir}" in out

        report = self._run(capsys, "obs", "report", outdir)
        assert "Campaign report" in report and "t_cam_b" in report

        as_json = self._run(capsys, "obs", "report", outdir, "--json")
        doc = json.loads(as_json)
        assert doc["campaign"]["computed"] == 2  # t_cam_b plus its dep

        trace_file = tmp_path / "merged.json"
        out = self._run(
            capsys, "obs", "report", outdir, "--chrome-trace", str(trace_file)
        )
        assert "merged trace written" in out
        merged = json.loads(trace_file.read_text())
        assert any(
            e["name"] == "unit" for e in merged["traceEvents"] if e["ph"] == "X"
        )

    def test_run_telemetry_without_outdir_exits(self, tele_specs):
        with pytest.raises(SystemExit):
            main(["run", "t_cam_a", "--telemetry"])

    def test_report_on_plain_dir_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "report", str(tmp_path)])
