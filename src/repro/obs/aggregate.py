"""Campaign telemetry aggregation: merge per-worker runlogs into one view.

The parent half of campaign telemetry.  A telemetry-enabled lab run
leaves ``<outdir>/telemetry/`` holding one runlog per computed unit
(:mod:`repro.obs.runlog`) plus a ``campaign.json`` with the parent's
run-level deltas.  This module joins them into:

* :func:`merge_chrome_trace` — one Chrome ``trace_event`` document with
  **one lane (pid) per worker process**, unit spans carrying resource
  profiles in ``args``, and a synthetic campaign lane for the run
  envelope; loadable directly in chrome://tracing or Perfetto.
* :func:`campaign_summary` — a JSON-ready summary: per-spec wall-time
  breakdown, per-worker occupancy, wave occupancy and the critical path
  through the unit dependency DAG, the lab cache hit rate, and peak
  RSS per unit.
* :func:`render_report` — the ASCII timeline + tables behind
  ``repro obs report <outdir>``.

Everything reads plain files — no :mod:`repro.lab` import — so reports
can be produced long after the run, on another machine, from nothing
but the artifact directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .runlog import TELEMETRY_DIRNAME, read_campaign_record, read_unit_runlog

__all__ = [
    "UnitTelemetry",
    "CampaignTelemetry",
    "load_campaign",
    "merge_chrome_trace",
    "campaign_summary",
    "render_report",
]

#: pid used for the synthetic campaign-envelope lane in merged traces.
CAMPAIGN_LANE_PID = 0


@dataclass
class UnitTelemetry:
    """One unit's parsed runlog: identity, streams, resource profile."""

    key: str
    spec: str
    params: dict[str, Any]
    parents: list[str]
    pid: int
    unix_start: float
    profile: dict[str, Any]
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    metric_deltas: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return float(self.profile.get("wall_s", 0.0))

    @property
    def unix_end(self) -> float:
        return self.unix_start + self.wall_s


@dataclass
class CampaignTelemetry:
    """Everything telemetry recorded about one run."""

    root: Path  # the telemetry directory itself
    units: list[UnitTelemetry]
    meta: dict[str, Any]  # campaign.json (may be empty for partial runs)


def _telemetry_dir(root: str | Path) -> Path:
    """Resolve an artifact root or a telemetry dir to the telemetry dir."""
    path = Path(root)
    if path.name != TELEMETRY_DIRNAME and (path / TELEMETRY_DIRNAME).is_dir():
        return path / TELEMETRY_DIRNAME
    return path


def load_campaign(root: str | Path) -> CampaignTelemetry:
    """Parse every runlog (plus ``campaign.json``) under ``root``.

    ``root`` may be the artifact directory (``repro all --outdir``) or
    its ``telemetry/`` subdirectory.  Raises ``FileNotFoundError`` when
    no telemetry exists there — the caller decides how to report that.
    """
    directory = _telemetry_dir(root)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"no telemetry directory under {root!s} "
            f"(run with --telemetry to record one)"
        )
    units: list[UnitTelemetry] = []
    for path in sorted(directory.glob("*.jsonl")):
        record = read_unit_runlog(path)
        header = record["unit"]
        units.append(
            UnitTelemetry(
                key=header["key"],
                spec=header["spec"],
                params=dict(header.get("params", {})),
                parents=list(header.get("parents", [])),
                pid=int(header["pid"]),
                unix_start=float(header["unix_start"]),
                profile=dict(header.get("profile", {})),
                spans=record["spans"],
                events=record["events"],
                metric_deltas=record["metric_deltas"],
            )
        )
    meta = read_campaign_record(directory) or {}
    if not units and not meta:
        raise FileNotFoundError(f"telemetry directory {directory} is empty")
    units.sort(key=lambda u: (u.unix_start, u.key))
    return CampaignTelemetry(root=directory, units=units, meta=meta)


# ---------------------------------------------------------------------------
# Chrome trace merge
# ---------------------------------------------------------------------------


def _campaign_epoch(campaign: CampaignTelemetry) -> float:
    starts = [u.unix_start for u in campaign.units]
    meta_start = campaign.meta.get("t_start_unix")
    if meta_start is not None:
        starts.append(float(meta_start))
    return min(starts) if starts else 0.0


def merge_chrome_trace(campaign: CampaignTelemetry) -> dict:
    """All worker streams as one Chrome ``trace_event`` document.

    Each worker process gets its own ``pid`` lane (named ``worker
    <pid>``); unit spans arrive with their resource profile in ``args``;
    a synthetic ``campaign`` lane (pid 0) spans the whole run when
    ``campaign.json`` recorded its envelope.  Timestamps are wall-clock
    microseconds rebased so the earliest activity is 0.
    """
    t0 = _campaign_epoch(campaign)
    events: list[dict] = []
    pids = sorted({u.pid for u in campaign.units})
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"worker {pid}"},
            }
        )
    meta = campaign.meta
    if meta.get("t_start_unix") is not None and meta.get("t_end_unix") is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": CAMPAIGN_LANE_PID,
                "tid": 0,
                "ts": 0,
                "args": {"name": "campaign"},
            }
        )
        events.append(
            {
                "name": "campaign",
                "cat": "lab",
                "ph": "X",
                "ts": (float(meta["t_start_unix"]) - t0) * 1e6,
                "dur": (float(meta["t_end_unix"]) - float(meta["t_start_unix"])) * 1e6,
                "pid": CAMPAIGN_LANE_PID,
                "tid": 0,
                "args": {
                    "jobs": str(meta.get("jobs", "")),
                    "units": str(len(meta.get("units", []))),
                },
            }
        )
    for unit in campaign.units:
        base_us = (unit.unix_start - t0) * 1e6
        for span in unit.spans:
            args = {k: str(v) for k, v in span.get("tags", {}).items()}
            if span["name"] == "unit" and span.get("cat") == "lab":
                for field_name in ("wall_s", "user_cpu_s", "sys_cpu_s", "max_rss_kb"):
                    args[field_name] = str(unit.profile.get(field_name, 0))
            events.append(
                {
                    "name": span["name"],
                    "cat": span["cat"],
                    "ph": "X",
                    "ts": base_us + span["ts_us"],
                    "dur": span["dur_us"],
                    "pid": unit.pid,
                    "tid": span.get("tid", 0),
                    "args": args,
                }
            )
        for ev in unit.events:
            events.append(
                {
                    "name": ev["name"],
                    "cat": ev["cat"],
                    "ph": "i",
                    "ts": base_us + ev["ts_us"],
                    "s": "t",
                    "pid": unit.pid,
                    "tid": ev.get("tid", 0),
                    "args": {k: str(v) for k, v in ev.get("tags", {}).items()},
                }
            )
    events.sort(key=lambda ev: (ev["ph"] != "M", ev["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.obs.aggregate",
            "counters": meta.get("counters", {}),
            "workers": pids,
        },
    }


# ---------------------------------------------------------------------------
# Campaign summary
# ---------------------------------------------------------------------------


def _critical_path(units: list[UnitTelemetry]) -> tuple[float, list[str]]:
    """Longest wall-time chain through the unit dependency DAG.

    Parents that were cache hits have no runlog and contribute zero —
    the path covers *computed* work, which is what bounds the campaign.
    """
    by_key = {u.key: u for u in units}
    memo: dict[str, tuple[float, list[str]]] = {}

    def cost(key: str) -> tuple[float, list[str]]:
        if key in memo:
            return memo[key]
        unit = by_key.get(key)
        if unit is None:
            return 0.0, []
        memo[key] = (unit.wall_s, [key])  # cycle guard: provisional self
        best, best_path = 0.0, []
        for parent in unit.parents:
            c, p = cost(parent)
            if c > best:
                best, best_path = c, p
        memo[key] = (unit.wall_s + best, best_path + [key])
        return memo[key]

    best, best_path = 0.0, []
    for key in by_key:
        c, p = cost(key)
        if c > best:
            best, best_path = c, p
    return best, best_path


def _rate(hits: float, total: float) -> float | None:
    return (hits / total) if total else None


def campaign_summary(campaign: CampaignTelemetry) -> dict:
    """Join runlogs + campaign record into one JSON-ready summary."""
    units = campaign.units
    meta = campaign.meta
    t0 = _campaign_epoch(campaign)
    t_end_candidates = [u.unix_end for u in units]
    if meta.get("t_end_unix") is not None:
        t_end_candidates.append(float(meta["t_end_unix"]))
    makespan = (max(t_end_candidates) - t0) if t_end_candidates else 0.0
    busy = sum(u.wall_s for u in units)
    workers = sorted({u.pid for u in units})
    critical_s, critical_keys = _critical_path(units)
    key_to_spec = {u.key: u.spec for u in units}

    specs: dict[str, dict[str, Any]] = {}
    for u in units:
        row = specs.setdefault(
            u.spec,
            {
                "computed": 0,
                "wall_s": 0.0,
                "user_cpu_s": 0.0,
                "sys_cpu_s": 0.0,
                "peak_rss_kb": 0,
                "spans": 0,
                "events": 0,
            },
        )
        row["computed"] += 1
        row["wall_s"] += u.wall_s
        row["user_cpu_s"] += float(u.profile.get("user_cpu_s", 0.0))
        row["sys_cpu_s"] += float(u.profile.get("sys_cpu_s", 0.0))
        row["peak_rss_kb"] = max(row["peak_rss_kb"], int(u.profile.get("max_rss_kb", 0)))
        row["spans"] += len(u.spans)
        row["events"] += len(u.events)
    for row in specs.values():
        row["share"] = (row["wall_s"] / busy) if busy else 0.0

    # Cached units appear only in the campaign record, not as runlogs.
    statuses: dict[str, int] = {}
    for entry in meta.get("units", []):
        statuses[entry.get("status", "?")] = statuses.get(entry.get("status", "?"), 0) + 1

    lanes = []
    for pid in workers:
        mine = [u for u in units if u.pid == pid]
        lanes.append(
            {
                "pid": pid,
                "computed": len(mine),
                "busy_s": sum(u.wall_s for u in mine),
                "first_s": min(u.unix_start for u in mine) - t0,
                "last_s": max(u.unix_end for u in mine) - t0,
            }
        )

    counters = {k: v for k, v in meta.get("counters", {}).items()}
    lab_hits = counters.get("lab.cache.hits", 0)
    lab_misses = counters.get("lab.cache.misses", 0)

    return {
        "campaign": {
            "outdir": str(campaign.root.parent),
            "jobs": meta.get("jobs"),
            "units": len(meta.get("units", [])) or len(units),
            "computed": len(units),
            "statuses": statuses,
            "workers": len(workers),
            "makespan_s": makespan,
            "busy_s": busy,
            "occupancy": _rate(busy, len(workers) * makespan) or 0.0,
            "critical_path_s": critical_s,
            "critical_path": [
                {"spec": key_to_spec.get(k, "?"), "key": k} for k in critical_keys
            ],
            "t_start_unix": t0,
        },
        "specs": dict(sorted(specs.items())),
        "workers": lanes,
        "units": [
            {
                "spec": u.spec,
                "key": u.key,
                "pid": u.pid,
                "start_s": u.unix_start - t0,
                "wall_s": u.wall_s,
                "user_cpu_s": float(u.profile.get("user_cpu_s", 0.0)),
                "sys_cpu_s": float(u.profile.get("sys_cpu_s", 0.0)),
                "max_rss_kb": int(u.profile.get("max_rss_kb", 0)),
                "spans": len(u.spans),
                "events": len(u.events),
            }
            for u in units
        ],
        "cache": {
            "lab": {
                "hits": lab_hits,
                "misses": lab_misses,
                "corrupt": counters.get("lab.cache.corrupt", 0),
                "hit_rate": _rate(lab_hits, lab_hits + lab_misses),
            },
        },
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# ASCII report
# ---------------------------------------------------------------------------

_TIMELINE_WIDTH = 60
_GLYPHS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _pct(value: float | None) -> str:
    return "-" if value is None else f"{value * 100:.0f}%"


def render_report(summary: dict) -> str:
    """ASCII campaign report: header, per-worker timeline, tables."""
    camp = summary["campaign"]
    lines = [
        f"Campaign report: {camp['outdir']} "
        f"(jobs={camp['jobs'] if camp['jobs'] is not None else '?'}, "
        f"{camp['units']} units, {camp['computed']} computed)",
        f"  makespan {camp['makespan_s']:.3f} s, busy {camp['busy_s']:.3f} s "
        f"across {camp['workers']} worker(s) -> "
        f"occupancy {_pct(camp['occupancy'])}",
    ]
    if camp["critical_path"]:
        chain = " -> ".join(step["spec"] for step in camp["critical_path"])
        lines.append(
            f"  critical path {camp['critical_path_s']:.3f} s "
            f"over {len(camp['critical_path'])} unit(s): {chain}"
        )

    units = summary["units"]
    makespan = camp["makespan_s"]
    if units and makespan > 0:
        lines.append("")
        lines.append(
            f"timeline (one lane per worker, {_TIMELINE_WIDTH} cols "
            f"= {makespan:.3f} s)"
        )
        glyph_of = {
            u["key"]: _GLYPHS[i % len(_GLYPHS)] for i, u in enumerate(units)
        }
        for lane in summary["workers"]:
            row = [" "] * _TIMELINE_WIDTH
            for u in units:
                if u["pid"] != lane["pid"]:
                    continue
                lo = int(u["start_s"] / makespan * _TIMELINE_WIDTH)
                hi = int((u["start_s"] + u["wall_s"]) / makespan * _TIMELINE_WIDTH)
                for col in range(min(lo, _TIMELINE_WIDTH - 1), min(max(hi, lo + 1), _TIMELINE_WIDTH)):
                    row[col] = glyph_of[u["key"]]
            lines.append(f"  pid {lane['pid']:<8}|{''.join(row)}|")
        lines.append("")
        lines.append(
            f"  {'':<2}{'spec':<14}{'pid':>8}{'start s':>9}{'wall s':>9}"
            f"{'cpu s':>9}{'rss MB':>9}{'spans':>7}"
        )
        for u in units:
            cpu = u["user_cpu_s"] + u["sys_cpu_s"]
            lines.append(
                f"  {glyph_of[u['key']]:<2}{u['spec']:<14}{u['pid']:>8}"
                f"{u['start_s']:>9.3f}{u['wall_s']:>9.3f}{cpu:>9.3f}"
                f"{u['max_rss_kb'] / 1024:>9.1f}{u['spans']:>7}"
            )

    if summary["specs"]:
        lines.append("")
        lines.append(
            f"{'spec':<14}{'computed':>9}{'wall s':>9}{'share':>7}"
            f"{'cpu s':>9}{'peak rss MB':>13}"
        )
        for name, row in summary["specs"].items():
            cpu = row["user_cpu_s"] + row["sys_cpu_s"]
            lines.append(
                f"{name:<14}{row['computed']:>9}{row['wall_s']:>9.3f}"
                f"{_pct(row['share']):>7}{cpu:>9.3f}"
                f"{row['peak_rss_kb'] / 1024:>13.1f}"
            )

    cache = summary["cache"]
    lines.append("")
    lines.append(
        f"lab cache   : {cache['lab']['hits']} hits / "
        f"{cache['lab']['misses']} misses "
        f"({cache['lab']['corrupt']} corrupt, "
        f"hit rate {_pct(cache['lab']['hit_rate'])})"
    )
    return "\n".join(lines)


def write_merged_trace(path: str | Path, campaign: CampaignTelemetry) -> Path:
    """Write :func:`merge_chrome_trace` as JSON to ``path``."""
    p = Path(path)
    p.write_text(json.dumps(merge_chrome_trace(campaign), default=str))
    return p
