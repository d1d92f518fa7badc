"""Exporters: JSONL event log, Chrome ``trace_event`` dump, text summary.

Three views of the same buffers:

* :func:`to_jsonl` — one JSON object per line (spans, instant events,
  then one ``metrics`` line), greppable and diffable;
* :func:`chrome_trace` — the Chrome ``trace_event`` JSON-object format,
  loadable directly in ``chrome://tracing`` or https://ui.perfetto.dev
  (spans as complete ``"ph": "X"`` events, instants as ``"ph": "i"``);
* :func:`summary` — a plain-text per-(category, name) table with call
  counts and total/mean/max durations, plus the metrics snapshot.

Timestamps are rebased so the earliest span/event in the buffer is 0 µs.
"""

from __future__ import annotations

import json
import pathlib

from .metrics import Metrics, get_metrics
from .tracer import Tracer, get_tracer

__all__ = [
    "to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "summary",
]


def _epoch(tracer: Tracer) -> float:
    """Earliest timestamp in the buffers (0.0 when empty)."""
    starts = [s.start for s in tracer.spans()]
    starts += [e.timestamp for e in tracer.events()]
    return min(starts) if starts else 0.0


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def to_jsonl(tracer: Tracer | None = None, metrics: Metrics | None = None) -> str:
    """The whole trace as newline-delimited JSON (trailing newline)."""
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    t0 = _epoch(tracer)
    lines = []
    for s in tracer.spans():
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": s.name,
                    "cat": s.category,
                    "ts_us": (s.start - t0) * 1e6,
                    "dur_us": s.duration * 1e6,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "tid": s.thread_id,
                    "tags": s.tags,
                },
                default=str,
            )
        )
    for e in tracer.events():
        lines.append(
            json.dumps(
                {
                    "type": "event",
                    "name": e.name,
                    "cat": e.category,
                    "ts_us": (e.timestamp - t0) * 1e6,
                    "parent": e.parent_id,
                    "tid": e.thread_id,
                    "tags": e.tags,
                },
                default=str,
            )
        )
    lines.append(json.dumps({"type": "metrics", "values": metrics.snapshot()}, default=str))
    return "\n".join(lines) + "\n"


def write_jsonl(
    path: str | pathlib.Path,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
) -> pathlib.Path:
    """Write :func:`to_jsonl` output to ``path``; returns the path."""
    p = pathlib.Path(path)
    p.write_text(to_jsonl(tracer, metrics))
    return p


# ---------------------------------------------------------------------------
# Chrome trace_event format
# ---------------------------------------------------------------------------


def chrome_trace(tracer: Tracer | None = None, metrics: Metrics | None = None) -> dict:
    """The trace as a Chrome ``trace_event`` JSON-object document."""
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    t0 = _epoch(tracer)
    events: list[dict] = []
    for s in tracer.spans():
        events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.thread_id,
                "args": {k: str(v) for k, v in s.tags.items()},
            }
        )
    for e in tracer.events():
        events.append(
            {
                "name": e.name,
                "cat": e.category,
                "ph": "i",
                "ts": (e.timestamp - t0) * 1e6,
                "s": "t",
                "pid": 1,
                "tid": e.thread_id,
                "args": {k: str(v) for k, v in e.tags.items()},
            }
        )
    events.sort(key=lambda ev: ev["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs", "metrics": metrics.snapshot()},
    }


def write_chrome_trace(
    path: str | pathlib.Path,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
) -> pathlib.Path:
    """Write :func:`chrome_trace` as JSON to ``path``; returns the path."""
    p = pathlib.Path(path)
    p.write_text(json.dumps(chrome_trace(tracer, metrics), default=str))
    return p


# ---------------------------------------------------------------------------
# Plain-text summary
# ---------------------------------------------------------------------------


#: Counter families always listed in :func:`summary` (0 when untouched),
#: so cache behaviour is visible even on runs that never hit a cache.
_CACHE_COUNTERS = (
    "ckpt.schedule_cache.hits",
    "ckpt.schedule_cache.misses",
    "lab.cache.hits",
    "lab.cache.misses",
    "lab.cache.corrupt",
)


def summary(tracer: Tracer | None = None, metrics: Metrics | None = None) -> str:
    """Per-(category, name) span statistics plus the metrics snapshot.

    The metrics half is three tables: counters (always including the
    ``ckpt.schedule_cache`` / ``lab.cache`` families), gauges, and histograms
    with mean/p50/p95/max columns.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    groups: dict[tuple[str, str], list[float]] = {}
    for s in tracer.spans():
        groups.setdefault((s.category, s.name), []).append(s.duration)
    lines = [
        f"{'category':<12}{'span':<22}{'count':>7}{'total ms':>11}"
        f"{'mean ms':>10}{'max ms':>10}"
    ]
    for (cat, name), durs in sorted(groups.items()):
        total = sum(durs)
        lines.append(
            f"{cat:<12}{name:<22}{len(durs):>7}{total * 1e3:>11.3f}"
            f"{total / len(durs) * 1e3:>10.3f}{max(durs) * 1e3:>10.3f}"
        )
    if len(lines) == 1:
        lines.append("(no spans recorded)")
    events = tracer.events()
    if events:
        counts: dict[tuple[str, str], int] = {}
        for e in events:
            key = (e.category, e.name)
            counts[key] = counts.get(key, 0) + 1
        lines.append("")
        lines.append(f"{'category':<12}{'event':<22}{'count':>7}")
        for (cat, name), n in sorted(counts.items()):
            lines.append(f"{cat:<12}{name:<22}{n:>7}")
    snap = metrics.snapshot()
    counters = {n: i["value"] for n, i in snap.items() if i["kind"] == "counter"}
    if snap:
        for name in _CACHE_COUNTERS:
            counters.setdefault(name, 0)
    if counters:
        lines.append("")
        lines.append(f"{'counter':<38}{'value':>14}")
        for name, value in sorted(counters.items()):
            lines.append(f"{name:<38}{value:>14}")
    gauges = {n: i["value"] for n, i in snap.items() if i["kind"] == "gauge"}
    if gauges:
        lines.append("")
        lines.append(f"{'gauge':<38}{'value':>14}")
        for name, value in sorted(gauges.items()):
            lines.append(f"{name:<38}{value:>14.6g}")
    hists = {n: i for n, i in snap.items() if i["kind"] == "histogram"}
    if hists:
        lines.append("")
        lines.append(
            f"{'histogram':<30}{'count':>7}{'mean':>11}{'p50':>11}"
            f"{'p95':>11}{'max':>11}"
        )
        for name, info in sorted(hists.items()):
            lines.append(
                f"{name:<30}{info['count']:>7}{info['mean']:>11.6g}"
                f"{info['p50']:>11.6g}{info['p95']:>11.6g}{info['max']:>11.6g}"
            )
    return "\n".join(lines)
