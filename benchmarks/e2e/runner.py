"""Command line of the end-to-end benchmark.

One workload, as a harness calls it (prints one JSON line last)::

    python3 benchmarks/e2e/run.py --workload plan-sweep --seed 0 --seconds 15 --trace 0

Every workload, rounds interleaved, written to a result file::

    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --out R.json [--trace]

Two result files side by side, and the declared tables::

    python -m benchmarks.e2e --compare A.json B.json
    python -m benchmarks.e2e --list

``BENCHMARK.json`` at the repository root declares the workloads and
metrics; the run fails when the code emits a metric it does not declare
or omits one it does.  Each round runs in a fresh single-threaded
process (see :mod:`.worker`), and every end-to-end metric is the median
of its per-round values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .tracing import layer_metrics, merge
from .worker import E2E_UNITS
from .workloads import SIZES

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "benchmarks" / "e2e" / "out"
#: Default BLAS threading doubled CPU time at equal wall time on 2 cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROUNDS = 3
WORKER_TIMEOUT_S = 150
#: Details that must read the same in every round of one seed.
ROUND_INVARIANTS = ("loss_digest", "artifact_digest")
#: Largest |sum of self times - root span| / root span of a traced operation.
MAX_MISMATCH = 0.05


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


# ---------------------------------------------------------------------------
# The declaration
# ---------------------------------------------------------------------------


def load_declaration() -> dict:
    """``BENCHMARK.json``, checked against the workloads this code defines."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        decl = json.load(fh)
    names = [w["name"] for w in decl["workloads"]]
    if sorted(names) != sorted(SIZES):
        raise BenchError(f"BENCHMARK.json workloads {names} != defined {sorted(SIZES)}")
    return decl


def _declared(decl: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in decl["per_layer" if trace else "end_to_end"]}


def _checked(decl: dict, metrics: dict[str, tuple[float, str]], trace: bool) -> dict:
    """``metrics`` as JSON, after checking names and units against ``decl``."""
    declared = _declared(decl, trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        extra = sorted(set(emitted.items()) - set(declared.items()))
        missing = sorted(set(declared.items()) - set(emitted.items()))
        raise BenchError(f"metrics differ from BENCHMARK.json: undeclared {extra}, missing {missing}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def _worker_env() -> dict:
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_round(name: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    """One round of workload ``name`` in a fresh worker process."""
    workdir = OUT / "work" / f"{name}-s{seed}-r{index}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    args = {"sizes": SIZES[name], "seed": seed, "seconds": seconds, "trace": trace,
            "workdir": str(workdir), "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.worker", json.dumps(args)],
            cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{name} round {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _checks_pass(rounds: list[dict]) -> bool:
    """Every round correct, the round invariants equal, traced spans adding up."""
    ok = all(r["correct"] for r in rounds)
    for key in ROUND_INVARIANTS:
        ok = ok and len({r["details"].get(key) for r in rounds} - {None}) <= 1
    return ok and all(r["trace"]["max_mismatch"] <= MAX_MISMATCH for r in rounds if "trace" in r)


def aggregate(decl: dict, rounds: list[dict]) -> dict:
    """Combine a workload's rounds: medians, quartiles, checks, layers."""
    e2e = {}
    for name, unit in E2E_UNITS.items():
        e2e[name] = {**_spread([r["metrics"][name] for r in rounds]), "unit": unit}
    out = {
        "correct": _checks_pass(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": e2e,
        "tail": [r["tail"] for r in rounds],
        "details": [r["details"] for r in rounds],
    }
    _checked(decl, {k: (v["value"], v["unit"]) for k, v in e2e.items()}, trace=False)
    traced = [r["trace"] for r in rounds if "trace" in r]
    if traced:
        layers = layer_metrics(merge(traced))
        layers["trace.op_ms"] = (statistics.median(t["op_ms"] for t in traced), "ms")
        layers["trace.overhead"] = (statistics.median(t["overhead"] for t in traced), "x")
        layers["cli.import_s"] = (statistics.median(t["import_s"] for t in traced), "s")
        peak = max(r["details"].get("peak_bytes", 0) for r in rounds)
        layers["meter.peak_bytes"] = (float(peak), "B")
        out["layers"] = _checked(decl, layers, trace=True)
        out["max_mismatch"] = max(t["max_mismatch"] for t in traced)
    return out


def chrome_trace(rounds_by_workload: dict[str, list[dict]]) -> dict:
    """Chrome ``trace_event`` JSON: one process lane per workload round."""
    events = []
    pid = 0
    for name, rounds in rounds_by_workload.items():
        for i, r in enumerate(rounds):
            if "trace" not in r:
                continue
            pid += 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": f"{name} round {i}"}})
            events += [{**e, "pid": pid} for e in r["trace"]["events"]]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_one(decl: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    """Harness mode: rounds of one workload, one JSON line on stdout."""
    rounds = [run_round(name, seed, seconds / ROUNDS, trace, i) for i in range(ROUNDS)]
    result = aggregate(decl, rounds)
    if trace:
        _write_json(OUT / f"trace-{name}-s{seed}.json", chrome_trace({name: rounds}))
        metrics = result["layers"]
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def provenance(seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "seed": seed,
        "rounds": ROUNDS,
        "seconds_per_round": seconds / ROUNDS,
        "trace": trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        },
    }


def run_suite(decl: dict, seed: int, seconds: float, trace: bool, out: Path) -> int:
    """Every workload, ``ROUNDS`` interleaved rounds, plus a traced round."""
    names = [w["name"] for w in decl["workloads"]]
    rounds: dict[str, list[dict]] = {n: [] for n in names}
    for i in range(ROUNDS):
        for n in names:
            rounds[n].append(run_round(n, seed, seconds / ROUNDS, False, i))
    result = {"provenance": provenance(seed, seconds, trace), "workloads": {}}
    for n in names:
        result["workloads"][n] = aggregate(decl, rounds[n])
    if trace:
        traced = {n: [run_round(n, seed, seconds / ROUNDS, True, ROUNDS)] for n in names}
        for n in names:
            w, t = result["workloads"][n], aggregate(decl, traced[n])
            w["correct"] = _checks_pass(rounds[n] + traced[n])
            w["attempted"] += t["attempted"]
            w["failed"] += t["failed"]
            w["layers"], w["max_mismatch"] = t["layers"], t["max_mismatch"]
        _write_json(out.with_suffix(".trace.json"), chrome_trace(traced))
    _write_json(out, result)
    print(format_result(result))
    print(f"wrote {out}")
    ok = all(w["correct"] and w["failed"] == 0 for w in result["workloads"].values())
    return 0 if ok else 1


def format_result(result: dict) -> str:
    lines = [f"{'workload':<20} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12}  unit"]
    for name, w in result["workloads"].items():
        for metric, m in w["metrics"].items():
            lines.append(f"{name:<20} {metric:<14} {m['value']:>12.5g} {m['q1']:>12.5g} "
                         f"{m['q3']:>12.5g}  {m['unit']}")
        lines.append(f"{name:<20} {'checks':<14} correct={w['correct']} "
                     f"attempted={w['attempted']} failed={w['failed']}")
    return "\n".join(lines)


def compare(decl: dict, path_a: Path, path_b: Path) -> int:
    """Per (workload, metric): medians, quartiles, ratio B/A and a verdict.

    ``unresolved`` when either side's interquartile spread exceeds the
    metric's bound, ``worse`` when B is worse than A by more than the
    bound, ``better`` when B is better and the two interquartile ranges
    do not overlap, ``same`` otherwise.
    """
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    lines = [f"{'workload':<20} {'metric':<14} {'A median [q1,q3]':>32} "
             f"{'B median [q1,q3]':>32} {'B/A':>7}  verdict"]
    worse = 0
    for w in (w["name"] for w in decl["workloads"]):
        if w not in a or w not in b:
            continue
        for m in decl["end_to_end"]:
            ma, mb = a[w]["metrics"][m["name"]], b[w]["metrics"][m["name"]]
            ratio = mb["value"] / ma["value"]
            spreads = [(x["q3"] - x["q1"]) / x["value"] for x in (ma, mb)]
            lower = m["better"] == "lower"
            change = ratio - 1 if lower else 1 - ratio  # > 0: B is worse
            apart = mb["q3"] < ma["q1"] if lower else mb["q1"] > ma["q3"]
            if max(spreads) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif change < 0 and apart:
                verdict = "better"
            else:
                verdict = "same"
            worse += verdict == "worse"
            fa = f"{ma['value']:.4g} [{ma['q1']:.4g},{ma['q3']:.4g}]"
            fb = f"{mb['value']:.4g} [{mb['q1']:.4g},{mb['q3']:.4g}]"
            lines.append(f"{w:<20} {m['name']:<14} {fa:>32} {fb:>32} {ratio:>7.3f}  {verdict}")
    print("\n".join(lines))
    return 1 if worse else 0


def list_tables(decl: dict) -> str:
    lines = ["workloads:"]
    for w in decl["workloads"]:
        lines.append(f"  {w['name']:<20} {json.dumps(SIZES[w['name']])}")
        lines.append(f"  {'':<20} {w['why']}")
    lines.append("end-to-end metrics (name, unit, better, bound):")
    for m in decl["end_to_end"]:
        lines.append(f"  {m['name']:<34} {m['unit']:<6} {m['better']:<7} {m['bound']}")
    lines.append("per-layer metrics (name, unit, better):")
    for m in decl["per_layer"]:
        lines.append(f"  {m['name']:<34} {m['unit']:<6} {m['better']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="result file of a full run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Per-layer metric names come from repro's family and spec registries.
    sys.path.insert(0, str(ROOT / "src"))
    decl = load_declaration()
    if args.list:
        print(list_tables(decl))
        return 0
    if args.compare:
        return compare(decl, *args.compare)
    os.environ.update(BLAS_ENV)
    seconds = args.seconds if args.seconds is not None else decl["run_seconds"]
    if args.workload:
        if args.workload not in SIZES:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(SIZES)}")
        return run_one(decl, args.workload, args.seed, seconds, bool(args.trace))
    out = args.out or OUT / f"result-{time.strftime('%Y%m%d-%H%M%S')}-s{args.seed}.json"
    return run_suite(decl, args.seed, seconds, bool(args.trace), out)
