"""Topo-aware cached runner for experiment units.

The runner takes a list of :class:`~repro.lab.spec.Unit` requests,
expands the dependency closure (dedup by cache key, cycle guard),
probes the :class:`~repro.lab.store.ArtifactStore` for each unit, and
computes only what is missing — serially inline, or fanned out over a
``concurrent.futures`` process pool when ``jobs > 1``.  Scheduling is
wave-based: every unit whose dependencies are satisfied runs in the
current wave, so independent units (the four Figure 1 panels, the
ablation and sensitivity grids) parallelize while dependents wait.

Outcome ordering is deterministic — the topological expansion order of
the request list — regardless of completion order, so serial and
parallel runs emit byte-identical artifacts and reports.

Cache semantics per unit (``key = unit_key(spec, params)``):

* payload present + manifest validates           → **hit** (nothing
  is loaded, rendered or written — the warm fast path)
* payload present, outputs missing/stale         → hit, re-rendered
* payload present but fails its integrity check  → **corrupt**,
  recomputed (typed :class:`~repro.errors.ArtifactError` internally)
* payload absent (or ``force=True``)             → **miss**, computed

Hits, misses and corruptions are counted on the ``obs`` metrics
registry (``lab.cache.*``) and every computed unit gets a ``lab``
tracer span plus a ``lab.compute_seconds`` histogram sample.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..errors import ArtifactError, LabError, ManifestError
from ..obs import get_metrics, get_tracer
from ..obs.runlog import (
    TELEMETRY_DIRNAME,
    UnitCapture,
    _metric_deltas,
    _metrics_state,
    write_campaign_record,
    write_unit_runlog,
)
from .manifest import build_manifest, validate_manifest
from .registry import get_spec
from .spec import ExperimentSpec, Unit, dump_json, load_json, unit_key
from .store import ArtifactStore

__all__ = [
    "UnitOutcome",
    "RunReport",
    "expand_units",
    "run_units",
    "compute_unit",
    "compute_payload",
    "default_jobs",
    "pool_map",
]


@dataclass
class UnitOutcome:
    """What happened to one unit during a run."""

    spec: str
    params: dict[str, Any]
    key: str
    status: str  # "hit" | "miss" | "corrupt"
    stem: str | None = None
    outputs: tuple[str, ...] = ()  # declared artifact filenames
    wall_time_s: float = 0.0  # worker-measured compute time (no queue wait)
    written: tuple[Path, ...] = ()
    #: resource profile from the computing process (telemetry runs only)
    profile: dict[str, Any] | None = None

    @property
    def computed(self) -> bool:
        return self.status in ("miss", "corrupt")


@dataclass
class RunReport:
    """All outcomes of one run, in deterministic topo order."""

    outcomes: list[UnitOutcome] = field(default_factory=list)
    jobs: int = 1
    #: where per-unit runlogs + campaign.json landed (telemetry runs only)
    telemetry_dir: Path | None = None

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def misses(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "miss")

    @property
    def corrupt(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "corrupt")

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if o.computed)

    @property
    def written(self) -> list[Path]:
        return [p for o in self.outcomes for p in o.written]

    def summary_line(self) -> str:
        return (
            f"lab cache: {self.hits} hits / {self.misses} misses "
            f"({self.computed} computed, jobs={self.jobs})"
        )


def normalize_payload(payload: Any) -> Any:
    """Strict-JSON round-trip so cached and fresh payloads are identical.

    Tuples become lists, dict key order is preserved, infinities survive
    (:func:`~repro.lab.spec.dump_json`'s encoding) and any NaN is
    rejected up front.
    """
    try:
        return load_json(dump_json(payload))
    except (TypeError, ValueError) as exc:
        raise LabError(f"spec payload is not strict JSON: {exc}") from exc


def compute_unit(spec: ExperimentSpec, params: Mapping[str, Any], inputs: tuple) -> Any:
    """Run one spec's compute fn and normalize the result."""
    return normalize_payload(spec.compute(dict(params), inputs))


def compute_payload(name: str, params: Mapping[str, Any] | None = None) -> Any:
    """Compute one spec's payload in memory, resolving deps recursively.

    No store, no cache — the one-off path behind ``repro-edge <spec>``
    alias invocations.
    """
    spec = get_spec(name)
    validated = spec.validate_params(params)
    inputs = tuple(compute_payload(d, p) for d, p in spec.deps)
    return compute_unit(spec, validated, inputs)


def _captured_compute(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    inputs: tuple,
    capture: Mapping[str, Any] | None,
) -> tuple[Any, float, dict[str, Any] | None]:
    """Compute one unit, measuring wall time in the computing process.

    Returns ``(payload, wall_s, profile)``.  Wall time is always
    measured here — around the compute itself, never around pool queue
    wait.  With ``capture`` (a ``{"key", "parents", "telemetry_root"}``
    mapping from a ``--telemetry`` run) the compute runs inside a
    :class:`~repro.obs.runlog.UnitCapture` and its runlog is persisted
    under the telemetry root before returning.
    """
    if capture is None:
        t0 = time.perf_counter()
        payload = compute_unit(spec, params, inputs)
        return payload, time.perf_counter() - t0, None
    with UnitCapture(
        key=capture["key"], spec=spec.name,
        params=params, parents=capture["parents"],
    ) as cap:
        payload = compute_unit(spec, params, inputs)
    write_unit_runlog(capture["telemetry_root"], cap.record)
    return payload, cap.profile["wall_s"], cap.profile


def _pool_compute(
    spec_name: str,
    params: dict,
    inputs: tuple,
    capture: dict | None = None,
) -> tuple[Any, float, dict[str, Any] | None]:
    """Process-pool entry point: re-resolve the spec in the worker.

    Returns the payload, the worker-measured compute wall time, and the
    unit's resource profile (``None`` unless ``capture`` requested
    telemetry).  Schedules and their compiled programs are memoized per
    process, so a worker plans each schedule at most once.
    """
    import repro.experiments  # noqa: F401  (populates the registry)

    return _captured_compute(get_spec(spec_name), params, inputs, capture)


def expand_units(units: Iterable[Unit]) -> list[Unit]:
    """Dependency closure in topological order, deduplicated by key.

    Dependencies precede their dependents.  If a unit appears both as
    an implicit dependency and as an explicit request with outputs, the
    explicit outputs win (same computation, richer emission).
    """
    order: list[Unit] = []
    index: dict[str, int] = {}
    visiting: list[str] = []

    def visit(unit: Unit) -> None:
        spec = get_spec(unit.spec)
        params = spec.validate_params(unit.params)
        key = unit_key(spec, params)
        if key in visiting:
            cycle = " -> ".join(visiting[visiting.index(key):] + [key])
            raise LabError(f"dependency cycle among experiment units: {cycle}")
        if key in index:
            pos = index[key]
            if unit.outputs and not order[pos].outputs:
                order[pos] = Unit(
                    spec=spec.name, params=params,
                    outputs=unit.outputs, stem=unit.stem,
                )
            return
        visiting.append(key)
        for dep_name, dep_params in spec.deps:
            visit(Unit(spec=dep_name, params=dep_params))
        visiting.pop()
        index[key] = len(order)
        order.append(Unit(spec=spec.name, params=params,
                          outputs=unit.outputs, stem=unit.stem))

    for unit in units:
        visit(unit)
    return order


def _dep_keys(spec: ExperimentSpec) -> list[tuple[str, str]]:
    """(dep spec name, dep cache key) pairs for a spec's declared deps."""
    out = []
    for dep_name, dep_params in spec.deps:
        dep_spec = get_spec(dep_name)
        out.append((dep_name, unit_key(dep_spec, dep_spec.validate_params(dep_params))))
    return out


def _outputs_valid(store: ArtifactStore, unit: Unit, key: str) -> bool:
    """True when the unit's manifest validates against the disk state."""
    if not unit.outputs:
        return True
    stem = unit.stem or unit.outputs[0][0].rsplit(".", 1)[0]
    doc = store.read_manifest(stem)
    if doc is None or doc.get("key") != key:
        return False
    try:
        validate_manifest(doc, store, stem)
    except ManifestError:
        return False
    return True


def _render_and_manifest(
    store: ArtifactStore,
    unit: Unit,
    spec: ExperimentSpec,
    key: str,
    payload: Any,
    *,
    parents: Mapping[str, str],
    wall_time_s: float,
    cached: bool,
    telemetry: Mapping[str, Any] | None = None,
) -> tuple[Path, ...]:
    """Render every declared output and write the provenance manifest."""
    written: list[Path] = []
    hashes: dict[str, str] = {}
    for filename, fmt in unit.outputs:
        renderer = spec.renderers.get(fmt)
        if renderer is None:
            raise LabError(
                f"spec {spec.name!r} has no {fmt!r} renderer "
                f"(has: {sorted(spec.renderers)})"
            )
        path, _changed = store.write_artifact(filename, renderer(payload))
        written.append(path)
        hashes[filename] = ArtifactStore.file_sha256(path)
    if unit.outputs:
        stem = unit.stem or unit.outputs[0][0].rsplit(".", 1)[0]
        store.write_manifest(
            stem,
            build_manifest(
                spec, unit.params, key,
                outputs=hashes, parents=dict(parents),
                payload_sha256=ArtifactStore.file_sha256(store.cache_path(key)),
                wall_time_s=wall_time_s, cached=cached, telemetry=telemetry,
            ),
        )
    return tuple(written)


def run_units(
    units: Iterable[Unit],
    store: ArtifactStore | None = None,
    *,
    jobs: int = 1,
    force: bool = False,
    telemetry: bool = False,
) -> RunReport:
    """Run a batch of units against a store; returns per-unit outcomes.

    With ``store=None`` everything is computed in memory (no caching,
    no artifacts) — useful for one-off ``run <spec>`` invocations.
    ``jobs`` caps process-pool width; 1 (or a single unit) runs inline.
    ``telemetry=True`` records a runlog (spans, metric deltas, resource
    profile) per computed unit under ``<store>/telemetry/`` plus one
    ``campaign.json``, ready for ``repro obs report``; it requires a
    store.  Off (the default) leaves outputs byte-identical to a
    pre-telemetry run.
    """
    order = expand_units(units)
    jobs = max(1, int(jobs or 1))
    metrics = get_metrics()
    tracer = get_tracer()
    if telemetry and store is None:
        raise LabError("telemetry capture requires an artifact store (outdir)")
    telemetry_root = str(store.root / TELEMETRY_DIRNAME) if telemetry else None
    t_start_unix = time.time() if telemetry else 0.0
    metrics_before = _metrics_state() if telemetry else {}

    payloads: dict[str, Any] = {}
    outcomes: dict[str, UnitOutcome] = {}
    specs = {u.spec: get_spec(u.spec) for u in order}

    def stem_of(unit: Unit) -> str | None:
        if unit.stem:
            return unit.stem
        if unit.outputs:
            return unit.outputs[0][0].rsplit(".", 1)[0]
        return None

    # -- probe phase: decide hit / miss / corrupt per unit -------------
    to_compute: dict[str, Unit] = {}
    rerender: dict[str, Unit] = {}
    keys: dict[int, str] = {}
    for i, unit in enumerate(order):
        key = unit_key(specs[unit.spec], unit.params)
        keys[i] = key
        if force or store is None or not store.has_payload(key):
            to_compute[key] = unit
            continue
        outcomes[key] = UnitOutcome(
            spec=unit.spec, params=dict(unit.params), key=key,
            status="hit", stem=stem_of(unit),
            outputs=tuple(f for f, _ in unit.outputs),
        )
        if not _outputs_valid(store, unit, key):
            rerender[key] = unit

    # Payloads of cached units are loaded lazily; a failed integrity
    # check at load time flips the unit to "corrupt" and recomputes it.
    def load_cached(key: str, unit: Unit) -> bool:
        try:
            payloads[key] = store.load_payload(key)
            return True
        except ArtifactError:
            metrics.counter("lab.cache.corrupt").inc()
            outcomes.pop(key, None)
            rerender.pop(key, None)
            to_compute[key] = unit
            return False

    # Any cached unit whose payload is needed (an input of a computed
    # unit, or a stale render) must actually load; iterate to fixpoint
    # since a corrupt load adds new compute work.
    changed = True
    while changed:
        changed = False
        needed: dict[str, Unit] = dict(rerender)
        for key, unit in to_compute.items():
            for dep_name, dep_key in _dep_keys(specs[unit.spec]):
                if dep_key not in to_compute and dep_key not in payloads:
                    dep_unit = next(
                        u for j, u in enumerate(order) if keys[j] == dep_key
                    )
                    needed[dep_key] = dep_unit
        for key, unit in needed.items():
            if key in payloads or key in to_compute:
                continue
            if not load_cached(key, unit):
                changed = True

    # -- compute phase: wave-parallel over the pool --------------------
    def finish(
        key: str,
        unit: Unit,
        payload: Any,
        wall: float,
        status: str,
        profile: dict[str, Any] | None = None,
    ) -> None:
        payloads[key] = payload
        metrics.counter("lab.cache.misses").inc()
        metrics.histogram("lab.compute_seconds").observe(wall)
        written: tuple[Path, ...] = ()
        if store is not None:
            store.save_payload(key, unit.spec, dict(unit.params), payload)
            parents = {n: k for n, k in _dep_keys(specs[unit.spec])}
            telemetry_ref = None
            if profile is not None:
                telemetry_ref = {
                    "runlog": f"{TELEMETRY_DIRNAME}/{key}.jsonl",
                    "profile": profile,
                }
            written = _render_and_manifest(
                store, unit, specs[unit.spec], key, payload,
                parents=parents, wall_time_s=wall, cached=False,
                telemetry=telemetry_ref,
            )
        outcomes[key] = UnitOutcome(
            spec=unit.spec, params=dict(unit.params), key=key,
            status=status, stem=stem_of(unit),
            outputs=tuple(f for f, _ in unit.outputs),
            wall_time_s=wall, written=written, profile=profile,
        )

    def capture_args(key: str, unit: Unit) -> dict | None:
        if telemetry_root is None:
            return None
        return {
            "key": key,
            "parents": [k for _, k in _dep_keys(specs[unit.spec])],
            "telemetry_root": telemetry_root,
        }

    # A computed unit is "corrupt" (rather than a plain miss) when its
    # payload file still exists on disk but failed the integrity check.
    statuses = {
        key: (
            "corrupt"
            if store is not None and not force and store.has_payload(key)
            else "miss"
        )
        for key in to_compute
    }

    pending = dict(to_compute)

    def ready_inputs(unit: Unit) -> tuple | None:
        # A dep is ready only once its payload is actually present —
        # "submitted to the pool" is not enough.
        deps = _dep_keys(specs[unit.spec])
        if any(k not in payloads for _, k in deps):
            return None
        return tuple(payloads[k] for _, k in deps)

    if jobs == 1 or len(pending) <= 1:
        for i, u in enumerate(order):
            key = keys[i]
            if key not in pending:
                continue
            inputs = ready_inputs(u)
            assert inputs is not None  # topo order guarantees dep payloads
            with tracer.span("unit", category="lab", spec=u.spec):
                payload, wall, profile = _captured_compute(
                    specs[u.spec], u.params, inputs, capture_args(key, u)
                )
            del pending[key]
            finish(key, u, payload, wall, statuses[key], profile)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            running: dict[Any, tuple[str, Unit]] = {}
            while pending or running:
                for i, u in enumerate(order):
                    key = keys[i]
                    if key not in pending or any(
                        k == key for k, _ in running.values()
                    ):
                        continue
                    inputs = ready_inputs(u)
                    if inputs is None:
                        continue
                    fut = pool.submit(
                        _pool_compute, u.spec, dict(u.params), inputs,
                        capture_args(key, u),
                    )
                    running[fut] = (key, u)
                    del pending[key]
                done, _ = wait(list(running), return_when=FIRST_COMPLETED)
                for fut in done:
                    key, u = running.pop(fut)
                    # The worker measured the compute; the parent only
                    # collects the result.  Record that as a "collect"
                    # span — never as unit compute time.
                    t_collect = time.perf_counter()
                    payload, wall, profile = fut.result()
                    if tracer.enabled:
                        tracer.record("collect", "lab", t_collect, spec=u.spec)
                    finish(key, u, payload, wall, statuses[key], profile)

    # -- emit phase: re-render stale artifacts from cached payloads ----
    for key, unit in rerender.items():
        if key not in outcomes or outcomes[key].computed:
            continue
        parents = {n: k for n, k in _dep_keys(specs[unit.spec])}
        written = _render_and_manifest(
            store, unit, specs[unit.spec], key, payloads[key],
            parents=parents, wall_time_s=0.0, cached=True,
        )
        outcomes[key].written = written

    for key, o in outcomes.items():
        if o.status == "hit":
            metrics.counter("lab.cache.hits").inc()

    report = RunReport(jobs=jobs)
    for i, _unit in enumerate(order):
        report.outcomes.append(outcomes[keys[i]])

    if telemetry_root is not None:
        # The parent's run-level view: one campaign.json next to the
        # unit runlogs, carrying this run's counter/histogram deltas.
        deltas = _metric_deltas(metrics_before, _metrics_state())
        counters = {
            name: 0
            for name in ("lab.cache.hits", "lab.cache.misses", "lab.cache.corrupt")
        }
        histograms: dict[str, dict[str, float]] = {}
        for name, delta in deltas.items():
            if delta["kind"] == "counter":
                counters[name] = delta["delta"]
            else:
                histograms[name] = {
                    "count": delta["count"], "sum": delta["sum"]
                }
        write_campaign_record(
            telemetry_root,
            {
                "type": "campaign",
                "jobs": jobs,
                "t_start_unix": t_start_unix,
                "t_end_unix": time.time(),
                "units": [
                    {
                        "spec": o.spec,
                        "key": o.key,
                        "status": o.status,
                        "wall_time_s": round(o.wall_time_s, 6),
                    }
                    for o in report.outcomes
                ],
                "counters": counters,
                "histograms": histograms,
            },
        )
        report.telemetry_dir = Path(telemetry_root)
    return report


def default_jobs() -> int:
    return os.cpu_count() or 1


def pool_map(fn, arg_tuples, jobs: int = 1) -> list:
    """Order-preserving process-pool map over a flat task list.

    The simpler sibling of :func:`run_units` for callers with no
    dependency structure or cache — e.g. the megafleet engine fanning
    device shards out.  Results come back in submission order no matter
    which worker finishes first, so a parallel run reduces byte-
    identically to a serial one.  ``fn`` must be a picklable module-
    level callable; ``jobs <= 1`` (or a single task) runs inline.
    """
    arg_tuples = list(arg_tuples)
    jobs = max(1, int(jobs or 1))
    if jobs == 1 or len(arg_tuples) <= 1:
        return [fn(*args) for args in arg_tuples]
    results: list = [None] * len(arg_tuples)
    with ProcessPoolExecutor(max_workers=min(jobs, len(arg_tuples))) as pool:
        futures = {pool.submit(fn, *args): i for i, args in enumerate(arg_tuples)}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                results[futures[fut]] = fut.result()
    return results
