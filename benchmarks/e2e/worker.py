"""One round of one workload, run in a fresh process.

``python -m benchmarks.e2e.worker '<json>'`` builds the workload, warms
it up, measures, checks, and prints its :func:`run_round` result as one
JSON line.  The runner starts one such process per round so that every
round pays the whole set-up again: interpreter start, imports, inputs,
plan and warm-up.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .tracing import NullTracer, Tracer, installed
from .workloads import make_workload

#: End-to-end metrics a round reports, with their units.
E2E_UNITS = {"setup_s": "s", "op_ms": "ms", "ops_per_s": "1/s", "rss_peak_mb": "MiB"}
#: Fresh ``import repro.cli`` processes timed per traced round.
IMPORT_PROBES = 3


def _rss_peak_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _throughput(latencies: list[float], chunk: int) -> float:
    """Median over consecutive groups of ``chunk`` operations of ops/second.

    A median of group rates, rather than one overall rate, keeps a
    second of contention on a shared host from moving the result.
    """
    groups = [latencies[i:i + chunk] for i in range(0, len(latencies) - chunk + 1, chunk)]
    return statistics.median(len(g) / sum(g) for g in groups or [latencies])


def _tail(latencies: list[float]) -> dict:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(latencies)
    for q in (99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            return {"q": q, "ms": statistics.quantiles(latencies, n=100)[q - 1] * 1e3, "n": n}
    return {"q": 50, "ms": statistics.median(latencies) * 1e3, "n": n}


def _import_seconds() -> float:
    """Median wall time of a fresh ``python -c 'import repro.cli'``."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(
    sizes: dict,
    seed: int,
    seconds: float,
    trace: bool,
    t_spawn: float,
    workdir: Path,
) -> dict:
    """Set up, measure for ``seconds``, check; the round's result.

    ``t_spawn`` is the ``time.monotonic()`` reading taken just before
    this process was started (the clock is system-wide on Linux), so
    ``setup_s`` includes interpreter start and imports.  With ``trace``
    the first half of the window runs untraced and the second half
    traced, which gives the tracing overhead.
    """
    workload = make_workload(sizes, seed, workdir, in_process=trace)
    workload.warmup()
    setup_s = time.monotonic() - t_spawn
    window = workload.measure(seconds / 2 if trace else seconds, NullTracer())
    windows = [window]
    if trace:
        tracer = Tracer(workload.root_label)
        with installed(tracer):
            traced = workload.measure(seconds / 2, tracer)
        windows.append(traced)
    correct, details = workload.check()
    failed = sum(w.failed for w in windows)
    result = {
        "correct": bool(correct) and failed == 0,
        "attempted": sum(len(w.latencies) for w in windows),
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "op_ms": statistics.median(window.latencies) * 1e3,
            "ops_per_s": _throughput(window.latencies, workload.chunk),
            "rss_peak_mb": _rss_peak_mb(),
        },
        "tail": _tail(window.latencies),
        "details": details,
    }
    if trace:
        summary = tracer.summary()
        summary["overhead"] = statistics.median(traced.latencies) / statistics.median(
            window.latencies
        )
        summary["import_s"] = _import_seconds()
        summary["events"] = tracer.events
        result["trace"] = summary
    return result


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    result = run_round(
        args["sizes"], args["seed"], args["seconds"], args["trace"],
        args["t_spawn"], Path(args["workdir"]),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
