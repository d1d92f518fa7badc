"""Specs, params and the experiment registry."""

import pytest

from repro import lab
from repro.errors import LabError

import repro.experiments  # noqa: F401  (registers the paper's specs)


def _ascii(doc):
    return str(doc) + "\n"


def make_spec(name="t_spec", **kw):
    kw.setdefault("title", "test spec")
    kw.setdefault("compute", lambda params, inputs: {"v": params.get("x", 0)})
    kw.setdefault("renderers", {"ascii": _ascii})
    kw.setdefault("code_fingerprint", "f" * 64)
    return lab.ExperimentSpec(name=name, **kw)


class TestParam:
    def test_coerce_type(self):
        assert lab.Param("x", int).coerce("7") == 7

    def test_default_none_passes_through(self):
        assert lab.Param("x", int).coerce(None) is None

    def test_none_with_default_rejected(self):
        with pytest.raises(LabError):
            lab.Param("x", int, default=3).coerce(None)

    def test_choices_enforced(self):
        p = lab.Param("s", str, default="a", choices=("a", "b"))
        assert p.coerce("b") == "b"
        with pytest.raises(LabError):
            p.coerce("c")

    def test_repeated_coerces_to_tuple(self):
        p = lab.Param("ls", int, repeated=True)
        assert p.coerce(["1", 2]) == (1, 2)

    def test_repeated_rejects_bare_string(self):
        with pytest.raises(LabError):
            lab.Param("ls", int, repeated=True).coerce("12")

    def test_repeated_choices(self):
        p = lab.Param("ls", int, repeated=True, choices=(1, 2))
        with pytest.raises(LabError):
            p.coerce([1, 3])


    def test_float_rejects_nan_but_keeps_inf(self):
        assert lab.Param("x", float, default=1.0).coerce("inf") == float("inf")
        with pytest.raises(LabError, match="param 'x' must not be NaN"):
            lab.Param("x", float, default=1.0).coerce("nan")
        with pytest.raises(LabError, match="param 'xs' must not be NaN"):
            lab.Param("xs", float, default=(1.0,), repeated=True).coerce([1.0, "nan"])

    def test_min_is_an_inclusive_bound(self):
        p = lab.Param("k", int, default=8, min=1)
        assert p.coerce("1") == 1
        with pytest.raises(LabError, match="param 'k' must be >= 1, got 0"):
            p.coerce(0)
        with pytest.raises(LabError, match="param 'ks' must be >= 0, got -1"):
            lab.Param("ks", int, default=(1,), repeated=True, min=0).coerce([1, -1])


class TestExperimentSpec:
    def test_requires_ascii_renderer(self):
        with pytest.raises(LabError):
            make_spec(renderers={"csv": _ascii})

    def test_rejects_bad_name(self):
        with pytest.raises(LabError):
            make_spec(name="bad name!")

    def test_rejects_duplicate_params(self):
        with pytest.raises(LabError):
            make_spec(params=(lab.Param("x"), lab.Param("x")))

    def test_validate_params_fills_defaults(self):
        spec = make_spec(params=(lab.Param("x", int, default=5),))
        assert spec.validate_params() == {"x": 5}
        assert spec.validate_params({"x": "9"}) == {"x": 9}

    def test_validate_params_rejects_unknown(self):
        spec = make_spec(params=(lab.Param("x", int, default=5),))
        with pytest.raises(LabError):
            spec.validate_params({"y": 1})

    def test_explicit_fingerprint_wins(self):
        assert make_spec().fingerprint() == "f" * 64

    def test_module_fingerprint_is_stable(self):
        spec = lab.get_spec("table1")
        assert spec.fingerprint() == spec.fingerprint()
        assert len(spec.fingerprint()) == 64


class TestKeys:
    def test_canonical_params_sorted(self):
        assert lab.canonical_params({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_rejects_nan(self):
        with pytest.raises(LabError):
            lab.canonical_payload({"x": float("nan")})

    def test_infinity_has_one_strict_encoding(self):
        from repro.lab.spec import dump_json, load_json

        inf = float("inf")
        assert lab.canonical_params({"d": inf, "e": -inf}) == (
            '{"d":{"$float":"Infinity"},"e":{"$float":"-Infinity"}}'
        )
        assert lab.canonical_payload([inf]) == '[{"$float":"Infinity"}]'
        assert load_json(dump_json({"d": [inf, -inf, 1.5]})) == {"d": [inf, -inf, 1.5]}
        # Finite data encodes exactly as before; lookalike objects stay dicts.
        assert lab.canonical_params({"d": 1.0}) == '{"d":1.0}'
        assert load_json('{"$float": "x"}') == {"$float": "x"}

    def test_key_changes_with_params(self):
        spec = make_spec(params=(lab.Param("x", int, default=1),))
        k1 = lab.unit_key(spec, {"x": 1})
        k2 = lab.unit_key(spec, {"x": 2})
        assert k1 != k2 and len(k1) == 64

    def test_key_changes_with_fingerprint(self):
        a = make_spec(code_fingerprint="a" * 64)
        b = make_spec(code_fingerprint="b" * 64)
        assert lab.unit_key(a, {}) != lab.unit_key(b, {})


class TestRegistry:
    def test_paper_specs_registered_in_order(self):
        names = lab.available_experiments()
        assert names[:3] == ("table1", "table2", "table3")
        assert set(names) >= {
            "section5", "figure1", "ablation", "sensitivity", "extended", "summary",
        }

    def test_duplicate_name_rejected(self):
        with pytest.raises(LabError):
            lab.register(make_spec(name="table1"))

    def test_unknown_dep_rejected(self):
        with pytest.raises(LabError):
            lab.register(make_spec(name="t_orphan", deps=(("no_such", {}),)))

    def test_register_unregister_roundtrip(self):
        lab.register(make_spec(name="t_tmp"))
        try:
            assert lab.get_spec("t_tmp").title == "test spec"
        finally:
            lab.unregister("t_tmp")
        with pytest.raises(LabError):
            lab.get_spec("t_tmp")

    def test_decorator_attaches_spec(self):
        @lab.experiment("t_deco", "decorated", params=(lab.Param("x", int, default=1),),
                        renderers={"ascii": _ascii})
        def fn(params, inputs):
            return {"x": params["x"]}

        try:
            assert fn.spec.name == "t_deco"
            assert fn.spec is lab.get_spec("t_deco")
            assert fn({"x": 1}, ()) == {"x": 1}  # still a plain callable
        finally:
            lab.unregister("t_deco")

    def test_default_units_validate_params(self):
        units = lab.default_units(["figure1"])
        assert len(units) == 4
        assert all(u.params["source"] == "paper" for u in units)
        assert units[0].outputs[0][0] == "figure1_a.txt"

    def test_default_units_all_specs(self):
        units = lab.default_units()
        # Derived, not pinned: every spec contributes its declared units.
        expected = sum(
            len(lab.get_spec(name).default_units)
            for name in lab.available_experiments()
        )
        assert len(units) == expected
        assert len(units) >= 23  # the PR-9 floor: specs only accrete
        assert sum(len(u.outputs) for u in units) >= 20
