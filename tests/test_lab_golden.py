"""Golden round-trips: every spec's renderers vs the legacy functions.

For each registered spec: the ascii rendering of a computed payload is
byte-identical to the hand-written generator it replaced, the json
rendering parses back to the payload, and csv renderings parse back to
the payload's numbers.
"""

import csv
import hashlib
import io
import json

import pytest

from repro import lab
from repro.experiments import (
    SUMMARY_DEPS,
    compare_to_paper,
    extended_model_table,
    figure1_ascii,
    section5_table,
    sensitivity_table,
    strategy_ablation_table,
    table1,
    table2,
    table3,
)

_PAYLOADS: dict = {}


def payload(name, params=None):
    key = (name, lab.canonical_params(lab.get_spec(name).validate_params(params)))
    if key not in _PAYLOADS:
        _PAYLOADS[key] = lab.compute_payload(name, params)
    return _PAYLOADS[key]


def render(name, fmt, params=None):
    return lab.get_spec(name).renderers[fmt](payload(name, params))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", [
        "table1", "table2", "table3", "section5", "figure1",
        "figure1_joint", "figure1_compressed",
        "ablation", "sensitivity", "extended", "summary",
    ])
    def test_json_parses_back_to_payload(self, name):
        spec = lab.get_spec(name)
        doc = payload(name)
        assert "json" in spec.renderers
        assert json.loads(spec.renderers["json"](doc)) == doc


class TestTables:
    @pytest.mark.parametrize("name,gen", [
        ("table1", table1), ("table2", table2), ("table3", table3),
    ])
    def test_ascii_matches_legacy(self, name, gen):
        for source in ("ours", "paper"):
            legacy = gen(source).as_table().render()
            assert render(name, "ascii", {"source": source}) == legacy

    @pytest.mark.parametrize("name", ["table1", "table2", "table3"])
    def test_compare_matches_legacy(self, name):
        assert render(name, "compare") == compare_to_paper(name).render()

    @pytest.mark.parametrize("name,gen", [
        ("table1", table1), ("table2", table2), ("table3", table3),
    ])
    def test_csv_parses_back(self, name, gen):
        result = gen("ours")
        rows = list(csv.reader(io.StringIO(render(name, "csv"))))
        assert len(rows) == 1 + len(result.rows)
        for parsed, r in zip(rows[1:], result.rows):
            assert parsed[0] == str(r)
            for cell, d in zip(parsed[1:], result.depths):
                assert float(cell.rstrip("*")) == pytest.approx(
                    result.value(r, d), abs=0.01
                )


class TestSection5:
    def test_ascii_matches_legacy(self):
        assert render("section5", "ascii") == section5_table().render()

    def test_params_flow_through(self):
        doc = payload("section5", {"max_segments": 8})
        assert doc["max_segments"] == 8
        assert render("section5", "ascii", {"max_segments": 8}) == \
            section5_table(max_segments=8).render()


class TestFigure1:
    @pytest.mark.parametrize("panel", ["a", "b", "c", "d"])
    def test_ascii_matches_legacy(self, panel):
        assert render("figure1", "ascii", {"panel": panel}) == \
            figure1_ascii(panel, "paper")

    def test_ours_source(self):
        assert render("figure1", "ascii", {"source": "ours"}) == \
            figure1_ascii("b", "ours")

    def test_csv_parses_back(self):
        doc = payload("figure1")
        lines = render("figure1", "csv").splitlines()
        assert lines[0] == "model,rho,memory_mb"
        assert len(lines) == 1 + len(doc["records"])
        name, rho, mb = lines[1].split(",")
        rec = doc["records"][0]
        assert name == rec["model"]
        assert float(rho) == pytest.approx(rec["rho"], abs=1e-4)
        assert float(mb) == pytest.approx(rec["memory_mb"], abs=0.01)


#: sha256 of the ascii and csv renderings of every default unit of the
#: two measured-frontier specs, keyed by the artifact file they land in.
FRONTIER_GOLDEN = {
    "figure1_joint_a_sdcard.txt": "0d0fc3567f5bdbedb027a30b7f5e689a0669a81c0e462ed1d107acef848df3d9",
    "figure1_joint_a_sdcard.csv": "257b5f4536211bd017cc576a16ce18d9f2edd76a0fd4aff20cc08ed6e6ccb53e",
    "figure1_joint_a_emmc.txt": "67832acb243728f58ff40b86dfff5328b332a05dc1d268fb2b50dd77798a2ef7",
    "figure1_joint_a_emmc.csv": "08ea5b205c2bd1d20e222f665d8ba3e441b98775d52f984fba2728c65651bd4a",
    "figure1_joint_b_sdcard.txt": "a55cf04658ca714f6662b9f8fe860c4ecbcc78ef3ef751bf603274ed29e604ac",
    "figure1_joint_b_sdcard.csv": "151a17564196b9a7d1651784fe91295f81bda3ea0539cbfbfdb76052e4873fe2",
    "figure1_joint_b_emmc.txt": "4e1f772a78c8c825097870c9a98655e12ab9d4418ccc40c1b11b63f9e629744d",
    "figure1_joint_b_emmc.csv": "777bb200da9f8885546e496905df79bf4f72ee6ac3ddf7bfe870f127051b041b",
    "figure1_joint_c_sdcard.txt": "0d7fc0557e76fcd34d860f2f0c61df8ed02984fab74535d8dcdd36138bd15680",
    "figure1_joint_c_sdcard.csv": "370758397c0b19c7f6bc1fdd48de4f8331c93bd5645ea419aadbcfe400e24196",
    "figure1_joint_c_emmc.txt": "abda0b7e8970bc7baaf6573fa7150740e383a82706d27129d7a1419c73d004f2",
    "figure1_joint_c_emmc.csv": "038ac6ac8f9c9874e7a50701391185d91951e8134d947688b4aa7f2d7047e8a8",
    "figure1_joint_d_sdcard.txt": "98d6963513317ef9413f2f37c9e2fb363a1c27ab40fce17a5169eaf3ffdb18b8",
    "figure1_joint_d_sdcard.csv": "fb6ecbc91e3c80659dbe1c629b3700e2e3412ac021ea592392dbec3e9e113501",
    "figure1_joint_d_emmc.txt": "dc6143da440d14f25d7b7be30e13cd38179ff9e86e29444947637de1693e54b3",
    "figure1_joint_d_emmc.csv": "7ebe1128ff2faecd8909ffcdf69e65da488373f9b7729f7ec4fed23e5dca23ba",
    "figure1_compressed_b.txt": "6c5c165ed4a28d8d212431d70fbe8a259cb936471e0d0fa0f8a4950c10aae82a",
    "figure1_compressed_b.csv": "be31d7f1fa6918fa81917ea6bd30e74f1509acbbe56d08b10760035ecc09a63e",
    "figure1_compressed_b_fp16.txt": "faa61f6f0c793d76b6df0250a8b9ebe2acad0e9ab9c404dade0a4d5e7afcf860",
    "figure1_compressed_b_fp16.csv": "59d345290120ef08a4f59881e8405dbc4620c256a5efc84d1f52ffa3b3a96d2a",
}

FRONTIER_RENDERINGS = [
    (name, dict(unit.params), fname, fmt)
    for name in ("figure1_joint", "figure1_compressed")
    for unit in lab.get_spec(name).default_units
    for fname, fmt in unit.outputs
]


class TestFrontierGolden:
    def test_every_default_rendering_is_pinned(self):
        assert sorted(f for _, _, f, _ in FRONTIER_RENDERINGS) == sorted(FRONTIER_GOLDEN)

    @pytest.mark.parametrize(
        "name,params,fname,fmt", FRONTIER_RENDERINGS, ids=[r[2] for r in FRONTIER_RENDERINGS]
    )
    def test_rendering_sha256(self, name, params, fname, fmt):
        text = render(name, fmt, params)
        assert hashlib.sha256(text.encode()).hexdigest() == FRONTIER_GOLDEN[fname]


class TestAblationSensitivityExtended:
    def test_ablation_matches_legacy(self):
        assert render("ablation", "ascii") == strategy_ablation_table().render()

    def test_ablation_infeasible_encodes_none(self):
        doc = payload("ablation", {"lengths": (18,), "slot_budgets": (3,)})
        assert any(r["rho"] is None for r in doc["records"])  # infeasible cells

    def test_sensitivity_matches_legacy(self):
        assert render("sensitivity", "ascii") == sensitivity_table().render()

    def test_extended_matches_legacy(self):
        assert render("extended", "ascii") == extended_model_table().render()


class TestSummary:
    def test_sections_are_dep_renders(self):
        doc = payload("summary")
        assert [s["spec"] for s in doc["sections"]] == [s for s, _ in SUMMARY_DEPS]
        for section in doc["sections"]:
            dep_name = section["spec"]
            dep_params = dict(SUMMARY_DEPS)[dep_name]
            expected = lab.get_spec(dep_name).renderers["ascii"](
                payload(dep_name, dep_params)
            )
            assert section["text"] == expected

    def test_ascii_is_section_concatenation(self):
        doc = payload("summary")
        out = render("summary", "ascii")
        for section in doc["sections"]:
            assert section["text"] in out
        assert "Table I" in out and "Figure 1b" in out
