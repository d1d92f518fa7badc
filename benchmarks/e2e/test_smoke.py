"""Smoke test of the benchmark: tiny sizes, one traced round in-process.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``.
"""

from __future__ import annotations

import json
import time

import pytest

from .runner import MAX_MISMATCH, aggregate, compare, load_declaration
from .worker import run_round
from .workloads import SIZES

TINY = {
    "train-mlp-revolve": {
        **SIZES["train-mlp-revolve"],
        "blocks": 2, "width": 8, "classes": 2, "samples": 64, "batch": 8, "slots": 2,
    },
    "train-cnn-revolve": {
        **SIZES["train-cnn-revolve"],
        "convs": 1, "channels": 2, "image": 4, "classes": 2, "samples": 16, "batch": 4, "slots": 2,
    },
    "plan-sweep": {**SIZES["plan-sweep"], "lengths": [4, 6], "slots": [2, 3]},
    # `repro all` has no size knob: these run the real thing.
    "lab-cold": SIZES["lab-cold"],
    "lab-warm": SIZES["lab-warm"],
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_declared_metric(name, tmp_path):
    decl = load_declaration()
    result = run_round(
        TINY[name], seed=0, seconds=0.2, trace=True, t_spawn=time.monotonic(), workdir=tmp_path,
    )
    assert result["failed"] == 0
    assert result["correct"]
    combined = aggregate(decl, [result])  # raises on an undeclared or missing metric
    for m in decl["end_to_end"]:
        assert combined["metrics"][m["name"]]["unit"] == m["unit"]
        assert combined["metrics"][m["name"]]["value"] > 0
    for m in decl["per_layer"]:
        assert combined["layers"][m["name"]]["unit"] == m["unit"]
    # Self times of each operation's spans add up to its root span.
    assert result["trace"]["ops"] > 0
    assert result["trace"]["max_mismatch"] <= MAX_MISMATCH
    assert combined["correct"]
    unbalanced = {**result, "trace": {**result["trace"], "max_mismatch": 2 * MAX_MISMATCH}}
    assert not aggregate(decl, [unbalanced])["correct"]


def _result(op_ms: float, spread: float) -> dict:
    metrics = {}
    for m in load_declaration()["end_to_end"]:
        value = op_ms if m["name"] == "op_ms" else 1.0
        q = spread if m["name"] == "op_ms" else 0.0
        metrics[m["name"]] = {"value": value, "q1": value * (1 - q / 2),
                              "q3": value * (1 + q / 2), "unit": m["unit"]}
    return {"workloads": {"plan-sweep": {"metrics": metrics}}}


@pytest.mark.parametrize(
    ("b_ms", "b_spread", "verdict", "code"),
    [(1.0, 0.01, "same", 0), (1.5, 0.01, "worse", 1), (0.5, 0.01, "better", 0),
     (1.5, 0.5, "unresolved", 0)],
)
def test_compare_verdicts(tmp_path, capsys, b_ms, b_spread, verdict, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(1.0, 0.01)))
    b.write_text(json.dumps(_result(b_ms, b_spread)))
    assert compare(load_declaration(), a, b) == code
    line = next(ln for ln in capsys.readouterr().out.splitlines() if " op_ms " in ln)
    assert line.split()[-1] == verdict
