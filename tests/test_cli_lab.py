"""Registry-generated CLI commands: list/show/run and the cached all."""

import json

import pytest

from repro import lab
from repro.cli import main

import repro.experiments  # noqa: F401


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def n_default_units():
    return len(lab.default_units())


def n_cold_misses():
    """Payload computations a cold ``repro all`` performs.

    Every default unit plus any dependency payload (summary's deps) not
    already covered by a default unit's (spec, params) key.
    """
    covered = {
        lab.unit_key(lab.get_spec(u.spec), u.params) for u in lab.default_units()
    }
    extra = 0
    for dep_name, dep_params in lab.get_spec("summary").deps:
        dep_spec = lab.get_spec(dep_name)
        if lab.unit_key(dep_spec, dep_spec.validate_params(dep_params)) not in covered:
            extra += 1
    return len(lab.default_units()) + extra


class TestListShow:
    def test_list_names_every_spec(self, capsys):
        out = run(capsys, "list")
        for name in lab.available_experiments():
            assert name in out
        assert f"{len(lab.available_experiments())} registered" in out

    def test_show_figure1(self, capsys):
        out = run(capsys, "show", "figure1")
        assert "panel" in out and "source" in out
        assert "ascii" in out and "csv" in out
        assert "figure1_b.txt" in out

    def test_show_names_param_bounds(self, capsys):
        out = run(capsys, "show", "profile")
        assert "top            int (default=8, min=1)" in out

    def test_show_summary_lists_deps(self, capsys):
        out = run(capsys, "show", "summary")
        for dep, _ in lab.get_spec("summary").deps:
            assert dep in out

    def test_show_unknown_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["show", "nope"])


class TestRun:
    def test_run_equals_alias(self, capsys):
        alias = run(capsys, "figure1", "--panel", "d", "--csv")
        generic = run(capsys, "run", "figure1", "--param", "panel=d",
                      "--format", "csv")
        assert generic == alias

    def test_run_table_alias_equivalence(self, capsys):
        assert run(capsys, "run", "table1") == run(capsys, "table1")

    def test_run_json_param(self, capsys):
        out = run(capsys, "run", "section5", "--param", "lengths=[18, 34]",
                  "--format", "json")
        assert json.loads(out)["lengths"] == [18, 34]

    def test_run_bad_param_syntax_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--param", "source"])

    def test_run_unknown_format_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "sensitivity", "--format", "nope"])

    def test_run_with_outdir_caches(self, capsys, tmp_path):
        out1 = run(capsys, "run", "sensitivity", "--outdir", str(tmp_path))
        out2 = run(capsys, "run", "sensitivity", "--outdir", str(tmp_path))
        assert "0 hits / 1 misses" in out1
        assert "1 hits / 0 misses" in out2
        assert out1.splitlines()[:-1] == out2.splitlines()[:-1]

    @pytest.mark.parametrize("spec, fmt", [("section5", "json"), ("pareto", "ascii")])
    def test_run_with_outdir_leaves_a_manifest(self, capsys, tmp_path, spec, fmt):
        out = run(capsys, "run", spec, "--format", fmt, "--outdir", str(tmp_path))
        store = lab.ArtifactStore(tmp_path)
        assert lab.check_manifests(store) == 1
        ((stem, doc),) = store.manifests()
        key = lab.unit_key(lab.get_spec(spec), lab.get_spec(spec).validate_params({}))
        assert doc["key"] == key and stem == f"{spec}-{key[:16]}"
        assert stem not in {u.stem for u in lab.default_units()}
        (filename,) = doc["outputs"]
        assert (tmp_path / filename).read_text().rstrip("\n") == out.rsplit("\n", 2)[0]


class TestAll:
    def test_second_run_is_all_hits(self, capsys, tmp_path):
        cold = run(capsys, "all", "--outdir", str(tmp_path))
        warm = run(capsys, "all", "--outdir", str(tmp_path), "--manifest-check")
        assert "misses" in cold and " 0 misses" in warm
        assert "0 hits" in cold.splitlines()[-1]
        assert f"(0 computed, jobs={lab.default_jobs()})" in warm.splitlines()[-1]
        assert sum(1 for ln in cold.splitlines() if ln.startswith("wrote ")) >= 20
        assert sum(1 for ln in warm.splitlines() if ln.startswith("cached ")) >= 20
        assert not any(ln.startswith("wrote ") for ln in warm.splitlines())
        assert f"manifests: {n_default_units()} valid" in warm

    def test_force_recomputes(self, capsys, tmp_path):
        run(capsys, "all", "--outdir", str(tmp_path), "--jobs", "1")
        forced = run(capsys, "all", "--outdir", str(tmp_path), "--jobs", "1",
                     "--force")
        assert f"0 hits / {n_cold_misses()} misses" in forced.splitlines()[-1]

    def test_jobs_flag_reported(self, capsys, tmp_path):
        out = run(capsys, "all", "--outdir", str(tmp_path), "--jobs", "2")
        assert "jobs=2)" in out.splitlines()[-1]

    def test_artifacts_match_alias_output(self, capsys, tmp_path):
        run(capsys, "all", "--outdir", str(tmp_path))
        alias = run(capsys, "table1", "--source", "paper")
        assert (tmp_path / "table1_paper.txt").read_text() == alias
