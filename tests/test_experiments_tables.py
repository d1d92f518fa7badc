"""Tables I-III regeneration: ours vs paper, shading reproduction."""

import pytest

from repro.experiments import compare_to_paper, memory_models, table1, table2, table3
from repro.memory import PAPER_TABLE1_MB, PAPER_TABLE2_MB, PAPER_TABLE3_GB
from repro.units import GB


class TestTable1:
    def test_paper_source_reproduces_published_values(self):
        t = table1("paper")
        for k, row in PAPER_TABLE1_MB.items():
            for depth, mb in row.items():
                assert t.value(k, depth) == pytest.approx(mb, abs=0.1)

    def test_ours_within_factor_of_paper(self):
        """First-principles values track the paper within [0.5x, 1.1x] —
        the paper counts more activation copies; ordering is identical."""
        t = table1("ours")
        for k, row in PAPER_TABLE1_MB.items():
            for depth, mb in row.items():
                ratio = t.value(k, depth) / mb
                assert 0.5 < ratio < 1.1, (k, depth, ratio)

    def test_ordering_matches_paper(self):
        """Within every row, model ordering by memory matches the paper."""
        t = table1("ours")
        for k in t.rows:
            ours = [t.value(k, d) for d in t.depths]
            paper = [PAPER_TABLE1_MB[k][d] for d in t.depths]
            assert ours == sorted(ours)
            assert paper == sorted(paper)

    def test_shading_batch1_none(self):
        for source in ("paper", "ours"):
            t = table1(source)
            assert not any(t.exceeds_budget(1, d) for d in t.depths)

    def test_shading_batch50_all(self):
        """Every model is shaded at batch 50; at batch 3 only ResNet-152
        is, and at batch 30 only ResNet-18 still fits."""
        t = table1("paper")
        assert all(t.exceeds_budget(50, d) for d in t.depths)
        assert {d for d in t.depths if t.exceeds_budget(3, d)} == {152}
        assert {d for d in t.depths if not t.exceeds_budget(30, d)} == {18}

    def test_render_marks_shaded(self):
        text = table1("paper").as_table().render()
        assert "*" in text


class TestTable2And3:
    def test_table2_monotone_in_image(self):
        t = table2("ours")
        for d in t.depths:
            vals = [t.value(s, d) for s in t.rows]
            assert vals == sorted(vals)

    @pytest.mark.parametrize(
        "gen,published,rel,abs_",
        ((table2, PAPER_TABLE2_MB, 0.025, 0.0), (table3, PAPER_TABLE3_GB, 0.03, 0.03)),
        ids=("table2", "table3"),
    )
    def test_paper_source_reproduces_published_values(self, gen, published, rel, abs_):
        t = gen("paper")
        for s, row in published.items():
            for depth, value in row.items():
                assert t.value(s, depth) == pytest.approx(value, rel=rel, abs=abs_)

    @pytest.mark.parametrize("source,depth", (("paper", 18), ("ours", 34)))
    def test_table2_1500px_headline(self, source, depth):
        """At 1500 px even ResNet-18 exceeds 2 GB (ours: one step later)."""
        assert table2(source).exceeds_budget(1500, depth)

    def test_table3_unit_is_gb(self):
        t3 = table3("paper")
        assert t3.unit == "GB"
        # Table III at 224 equals Table I batch 8 (paper consistency).
        assert t3.values_bytes[(224, 18)] == pytest.approx(
            615.05 * 1024 * 1024, rel=0.001
        )

    def test_table3_paper_headline(self):
        """Batch 8: no model deeper than 18/34 fits even at 224 (paper:
        'one cannot use a network with more than 50 layers')."""
        t3 = table3("paper")
        assert not t3.exceeds_budget(224, 18)
        assert not t3.exceeds_budget(224, 34)
        for d in (50, 101, 152):
            assert t3.exceeds_budget(224, d)

    def test_table3_ours_reproduces_224_frontier(self):
        t3 = table3("ours")
        assert not t3.exceeds_budget(224, 18)
        assert not t3.exceeds_budget(224, 34)
        for d in (101, 152):
            assert t3.exceeds_budget(224, d)

    def test_table3_650_nothing_fits(self):
        t3 = table3("paper")
        assert all(t3.exceeds_budget(650, d) for d in t3.depths)


class TestInfra:
    def test_memory_models_cached(self):
        a = memory_models()
        b = memory_models()
        assert a is b or a == b

    def test_compare_contains_ratio(self):
        text = compare_to_paper("table1", "ours").render()
        assert "x)" in text

    def test_csv_roundtrip(self):
        csv = table1("paper").as_table().to_csv()
        assert csv.count("\n") == 7  # header + 6 batch rows
