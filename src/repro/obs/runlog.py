"""Worker-side telemetry sink: per-unit runlogs for campaign runs.

A pool worker's spans and metrics die with its process unless they are
written down.  This module is the worker half of campaign telemetry:

* :class:`RunlogTracer` is a *coarse* tracer: it buffers every ``with
  tracer.span(...)`` block and instant event like a live
  :class:`~repro.obs.tracer.Tracer`, but reports ``enabled = False`` so
  the per-action hot paths (executor ``record()`` calls, sim event
  hooks, the compiled-dispatch bypass) stay on their zero-overhead
  branches.  Telemetry therefore costs one span per coarse phase, not
  one per schedule action — ``bench_obs_overhead`` pins it under the
  same ≤1.05x budget over a bare ``execute`` as the disabled tracer.
* :class:`UnitCapture` wraps one unit's compute: it installs a fresh
  :class:`RunlogTracer`, opens a ``unit`` span, snapshots the metrics
  registry and ``resource.getrusage`` before/after, and leaves behind a
  ``record`` (unit header + spans + events + metric deltas + resource
  profile) plus a plain-dict ``profile``.
* :func:`write_unit_runlog` persists one record as JSONL under
  ``<outdir>/telemetry/<unit_key>.jsonl``, keyed by unit key with the
  worker pid in the header; :func:`read_unit_runlog` parses it back.
* :func:`write_campaign_record` / :func:`read_campaign_record` handle
  the parent's one-per-run ``campaign.json`` (jobs, statuses, counter
  deltas) that :mod:`repro.obs.aggregate` joins with the unit streams.

Span timestamps inside a record are microseconds relative to the unit's
``unix_start`` anchor, so streams from different processes merge onto
one wall-clock axis regardless of each process's monotonic-clock epoch.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Mapping

from ..atomic import atomic_write_text
from ..errors import ConfigError
from .metrics import get_metrics
from .tracer import Tracer, set_tracer

try:  # Unix-only; on other platforms profiles carry zeros.
    import resource as _resource
except ImportError:  # pragma: no cover - non-Unix
    _resource = None

__all__ = [
    "RUNLOG_VERSION",
    "TELEMETRY_DIRNAME",
    "CAMPAIGN_FILENAME",
    "RunlogTracer",
    "UnitCapture",
    "runlog_lines",
    "write_unit_runlog",
    "read_unit_runlog",
    "write_campaign_record",
    "read_campaign_record",
]

RUNLOG_VERSION = 1
TELEMETRY_DIRNAME = "telemetry"
CAMPAIGN_FILENAME = "campaign.json"


class RunlogTracer(Tracer):
    """A live tracer that keeps the per-action hot paths disabled.

    Instrumented code gates its high-frequency recording on
    ``tracer.enabled`` (one ``record()`` per schedule action, one event
    per abstract sim step, the per-action fallback of the vectorized sim
    path).  ``RunlogTracer`` reports ``enabled = False`` — those
    branches stay free — while still buffering every coarse
    ``with span(...)`` block and ``event()`` call, which is exactly the
    granularity a campaign runlog wants.
    """

    enabled = False


def _metrics_state() -> dict[str, tuple]:
    """Comparable (kind, values...) state per instrument, delta-ready."""
    state: dict[str, tuple] = {}
    for name, info in get_metrics().snapshot().items():
        if info["kind"] == "counter":
            state[name] = ("counter", info["value"])
        elif info["kind"] == "histogram":
            state[name] = ("histogram", info["count"], info["sum"])
        # Gauges are point-in-time readings, not accumulations: a delta
        # of two samples is meaningless, so they stay out of runlogs.
    return state


def _metric_deltas(before: Mapping[str, tuple], after: Mapping[str, tuple]) -> dict:
    """Per-instrument change between two :func:`_metrics_state` readings."""
    deltas: dict[str, dict[str, Any]] = {}
    for name, state in after.items():
        prev = before.get(name, (state[0],) + (0,) * (len(state) - 1))
        if state == prev:
            continue
        if state[0] == "counter":
            deltas[name] = {"kind": "counter", "delta": state[1] - prev[1]}
        else:
            deltas[name] = {
                "kind": "histogram",
                "count": state[1] - prev[1],
                "sum": state[2] - prev[2],
            }
    return deltas


class UnitCapture:
    """Capture one unit's spans, metric deltas and resource profile.

    ``with UnitCapture(key=..., spec=...) as cap: compute()`` installs a
    fresh :class:`RunlogTracer` for the block (restoring the previous
    process tracer on exit, exception or not) and opens a ``unit`` span
    around it, so every runlog carries at least one worker-side unit
    span.  After the block, ``cap.record`` is the JSONL-ready runlog
    record and ``cap.profile`` the resource profile: wall seconds,
    user/system CPU seconds and max RSS from ``resource.getrusage``
    (kilobytes on Linux), plus the capturing pid.
    """

    def __init__(
        self,
        *,
        key: str,
        spec: str,
        params: Mapping[str, Any] | None = None,
        parents: tuple[str, ...] | list[str] = (),
    ) -> None:
        self.key = key
        self.spec = spec
        self.params = dict(params or {})
        self.parents = list(parents)
        self.record: dict[str, Any] | None = None
        self.profile: dict[str, Any] | None = None

    def __enter__(self) -> UnitCapture:
        self._tracer = RunlogTracer()
        self._previous = set_tracer(self._tracer)
        self._metrics0 = _metrics_state()
        self._rusage0 = (
            _resource.getrusage(_resource.RUSAGE_SELF) if _resource else None
        )
        self._unix0 = time.time()
        self._span = self._tracer.span(
            "unit", category="lab", spec=self.spec, key=self.key
        )
        self._span.__enter__()
        self._perf0 = self._span.span.start
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            wall_s = time.perf_counter() - self._perf0
            if self._rusage0 is not None:
                rusage = _resource.getrusage(_resource.RUSAGE_SELF)
                user_s = rusage.ru_utime - self._rusage0.ru_utime
                sys_s = rusage.ru_stime - self._rusage0.ru_stime
                max_rss_kb = int(rusage.ru_maxrss)
            else:  # pragma: no cover - non-Unix
                user_s = sys_s = 0.0
                max_rss_kb = 0
            self.profile = {
                "wall_s": wall_s,
                "user_cpu_s": user_s,
                "sys_cpu_s": sys_s,
                "max_rss_kb": max_rss_kb,
                "pid": os.getpid(),
            }
            self._span.set_tag("wall_s", round(wall_s, 6))
            self._span.set_tag("max_rss_kb", max_rss_kb)
            self._span.__exit__(exc_type, exc, tb)
            self.record = {
                "unit": {
                    "type": "unit",
                    "version": RUNLOG_VERSION,
                    "key": self.key,
                    "spec": self.spec,
                    "params": self.params,
                    "parents": self.parents,
                    "pid": os.getpid(),
                    "unix_start": self._unix0,
                    "error": exc_type.__name__ if exc_type is not None else None,
                    "profile": self.profile,
                },
                "spans": [self._span_doc(s) for s in self._tracer.spans()],
                "events": [self._event_doc(e) for e in self._tracer.events()],
                "metric_deltas": _metric_deltas(self._metrics0, _metrics_state()),
            }
        finally:
            set_tracer(self._previous)

    def _span_doc(self, span) -> dict:
        return {
            "type": "span",
            "name": span.name,
            "cat": span.category,
            "ts_us": (span.start - self._perf0) * 1e6,
            "dur_us": span.duration * 1e6,
            "id": span.span_id,
            "parent": span.parent_id,
            "tid": span.thread_id,
            "tags": span.tags,
        }

    def _event_doc(self, event) -> dict:
        return {
            "type": "event",
            "name": event.name,
            "cat": event.category,
            "ts_us": (event.timestamp - self._perf0) * 1e6,
            "parent": event.parent_id,
            "tid": event.thread_id,
            "tags": event.tags,
        }


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def runlog_lines(record: Mapping[str, Any]) -> str:
    """One :class:`UnitCapture` record as JSONL (header, spans, events, metrics)."""
    lines = [json.dumps(record["unit"], default=str)]
    for doc in record["spans"]:
        lines.append(json.dumps(doc, default=str))
    for doc in record["events"]:
        lines.append(json.dumps(doc, default=str))
    lines.append(
        json.dumps({"type": "metrics", "deltas": record["metric_deltas"]}, default=str)
    )
    return "\n".join(lines) + "\n"


def write_unit_runlog(directory: str | Path, record: Mapping[str, Any]) -> Path:
    """Persist one unit record as ``<directory>/<unit_key>.jsonl``."""
    path = Path(directory) / f"{record['unit']['key']}.jsonl"
    atomic_write_text(path, runlog_lines(record))
    return path


def read_unit_runlog(path: str | Path) -> dict[str, Any]:
    """Parse one runlog file back into a :class:`UnitCapture`-shaped record."""
    unit: dict | None = None
    spans: list[dict] = []
    events: list[dict] = []
    deltas: dict[str, Any] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        kind = doc.get("type")
        if kind == "unit":
            unit = doc
        elif kind == "span":
            spans.append(doc)
        elif kind == "event":
            events.append(doc)
        elif kind == "metrics":
            deltas = doc.get("deltas", {})
    if unit is None:
        raise ConfigError(f"runlog {path} has no unit header line")
    return {"unit": unit, "spans": spans, "events": events, "metric_deltas": deltas}


def write_campaign_record(directory: str | Path, doc: Mapping[str, Any]) -> Path:
    """Persist the parent's per-run campaign record next to the runlogs."""
    path = Path(directory) / CAMPAIGN_FILENAME
    atomic_write_text(path, json.dumps(doc, indent=1, default=str) + "\n")
    return path


def read_campaign_record(directory: str | Path) -> dict[str, Any] | None:
    """The campaign record, or ``None`` when the file is absent/malformed."""
    try:
        doc = json.loads((Path(directory) / CAMPAIGN_FILENAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None
