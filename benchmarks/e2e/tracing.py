"""In-memory spans around the public entry points of each layer.

:func:`installed` wraps, from outside the program, the functions and
methods that form each layer's boundary (``Trainer`` → ``run_schedule``
→ ``engine.vm.execute`` → backend methods → NN layer kernels; the
strategy cache → planners → ``compile_schedule``; ``cli.main`` →
``lab.run_units`` → ``compute_unit``) and restores them on exit.  Each
wrapper records a span: label, start, end, parent span and the trace id
of the operation it belongs to.  A span's self time is its duration
minus the time its child spans cover; the self times of one operation
add up to its root span, which the workload opens per operation.

Spans are kept in memory; only the first ``KEEP_SPANS`` become Chrome
trace events, the rest are folded into per-label totals as they close.
Calls made outside an operation (set-up, checks) are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

#: Spans per round written as Chrome trace events.
KEEP_SPANS = 5000
NN_KINDS = ("dense", "relu", "conv", "maxpool", "flatten")


def specs() -> tuple[str, ...]:
    """The experiment specs behind ``repro all``."""
    from repro.lab import default_units

    return tuple(dict.fromkeys(u.spec for u in default_units()))


def layers() -> tuple[str, ...]:
    """Every span label.

    The self times of an operation's spans, summed by label, partition
    its root span.  ``trainer`` and ``bench`` are root labels: the
    training loop between optimizer steps, and the benchmark's own loop
    around a plan point or a ``repro all`` call.
    """
    from repro.checkpointing import available_strategies

    return (
        "trainer", "executor", "vm", "tensor",
        *(f"nn.{phase}.{kind}" for phase in ("forward", "backward") for kind in NN_KINDS),
        "loss", "optim", "checkpointing",
        *(f"plan.build.{family}" for family in available_strategies()),
        "program", "sim", "tiered", "compressed",
        "experiments", "lab", "cli", "bench",
    )


class NullTracer:
    """What workloads see when tracing is off: every hook is a no-op."""

    enabled = False

    def begin_op(self) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer:
    """Span stack plus per-label self/inclusive time and call counts."""

    enabled = True

    def __init__(self, root_label: str) -> None:
        self.root_label = root_label
        # open spans: [label, start, child_seconds, span_id, parent_id]
        self._stack: list[list] = []
        self._next_id = 0
        self._trace_id = -1
        self._op_self = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_s: list[float] = []
        #: per operation, |sum of self times - root span| / root span
        self.op_mismatch: list[float] = []
        self.events: list[dict] = []

    # -- operation roots ---------------------------------------------------
    def begin_op(self) -> None:
        if self._stack:
            raise RuntimeError("begin_op inside an open operation")
        self._trace_id += 1
        self._op_self = 0.0
        self._push(self.root_label)

    def end_op(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError(f"end_op with {len(self._stack)} open spans")
        root = self._pop(None)
        self.op_s.append(root)
        self.op_mismatch.append(abs(self._op_self - root) / root if root > 0 else 0.0)

    # -- spans -------------------------------------------------------------
    def _push(self, label: str) -> None:
        parent = self._stack[-1][3] if self._stack else None
        self._next_id += 1
        self._stack.append([label, time.perf_counter(), 0.0, self._next_id, parent])

    def _pop(self, incl_key: str | None) -> float:
        end = time.perf_counter()
        label, start, child, span_id, parent = self._stack.pop()
        dur = end - start
        own = dur - child
        self.self_s[label] += own
        self._op_self += own
        self.counts[label] += 1
        if incl_key is not None:
            self.incl_s[incl_key] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.events) < KEEP_SPANS:
            self.events.append({
                "name": label, "cat": label.split(".", 1)[0], "ph": "X",
                "ts": start * 1e6, "dur": dur * 1e6, "pid": 1, "tid": 1,
                "args": {"trace_id": self._trace_id, "span_id": span_id, "parent": parent},
            })
        return dur

    def wrap(self, fn, label, *, label_of=None, incl_of=None, count_of=None):
        """``fn`` recording one span per call made inside an operation.

        ``label_of(args)`` names the span from the call's arguments,
        ``incl_of(args)`` adds its duration to an inclusive total, and
        ``count_of(args)`` returns ``(counter, n)`` to add to the counts.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            self._push(label_of(args) if label_of else label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(incl_of(args) if incl_of else None)
                if count_of is not None:
                    key, n = count_of(args)
                    self.counts[key] += n

        return traced

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Totals a round reports; :func:`merge` combines rounds."""
        return {
            "ops": len(self.op_s),
            "root_s": sum(self.op_s),
            "op_ms": statistics.median(self.op_s) * 1e3 if self.op_s else 0.0,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "max_mismatch": max(self.op_mismatch, default=0.0),
        }


def _method_targets():
    from repro.autodiff import (
        SGD, ConvLayer, DenseLayer, FlattenLayer, MaxPoolLayer, MemoryMeter, ReLULayer,
    )
    from repro.checkpointing import CheckpointStrategy
    from repro.engine import CompressedBackend, SimBackend, TensorBackend, TieredBackend

    backend = ("begin", "advance", "snapshot", "restore", "free", "adjoint", "adopt")
    yield TensorBackend, backend, "tensor"
    yield MemoryMeter, ("hold", "release"), "tensor"
    yield SimBackend, backend, "sim"
    yield TieredBackend, backend, "tiered"
    yield CompressedBackend, backend, "compressed"
    for cls, kind in (
        (DenseLayer, "dense"), (ReLULayer, "relu"), (ConvLayer, "conv"),
        (MaxPoolLayer, "maxpool"), (FlattenLayer, "flatten"),
    ):
        yield cls, ("forward",), f"nn.forward.{kind}"
        yield cls, ("backward",), f"nn.backward.{kind}"
    yield SGD, ("step",), "optim"
    yield CheckpointStrategy, ("schedule", "compiled", "measured"), "checkpointing"


def _family_label(args) -> str:
    return f"plan.build.{args[0].name}"


def _function_targets():
    import repro.autodiff.executor
    import repro.cli
    import repro.engine.program
    import repro.engine.vm
    import repro.lab.runner

    yield repro.autodiff.executor, "run_schedule", "executor", {}
    yield repro.engine.vm, "execute", "vm", {
        "count_of": lambda a: ("vm.actions", len(a[0].actions)),
    }
    yield repro.engine.program, "compile_schedule", "program", {
        "count_of": lambda a: ("compile.ops", len(a[0].actions)),
    }
    yield repro.engine.program, "run_compiled_sim", "sim", {}
    yield repro.lab.runner, "run_units", "lab", {}
    yield repro.lab.runner, "compute_unit", "experiments", {
        "incl_of": lambda a: a[0].name,
    }
    yield repro.cli, "main", "cli", {}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block.

    A module-level function is replaced in every ``repro`` module that
    bound it by name, so callers see the wrapper whichever way they
    imported it.
    """
    from repro.checkpointing import available_strategies, get_strategy

    undo: list[tuple[object, str, object]] = []
    try:
        for cls, names, label in _method_targets():
            for name in names:
                if name in cls.__dict__:
                    undo.append((cls, name, cls.__dict__[name]))
                    setattr(cls, name, tracer.wrap(cls.__dict__[name], label))
        for cls in {type(get_strategy(f)) for f in available_strategies()}:
            if "build_schedule" in cls.__dict__:
                original = cls.__dict__["build_schedule"]
                undo.append((cls, "build_schedule", original))
                setattr(cls, "build_schedule", tracer.wrap(original, None, label_of=_family_label))
        for module, name, label, options in _function_targets():
            original = getattr(module, name)
            wrapper = tracer.wrap(original, label, **options)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and (
                    getattr(mod, name, None) is original
                ):
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def merge(rounds: list[dict]) -> dict:
    """Sum the totals of several rounds' :meth:`Tracer.summary`."""
    out = {"ops": 0, "root_s": 0.0, "self_s": defaultdict(float),
           "incl_s": defaultdict(float), "counts": defaultdict(int)}
    for r in rounds:
        out["ops"] += r["ops"]
        out["root_s"] += r["root_s"]
        for key in ("self_s", "incl_s", "counts"):
            for name, v in r[key].items():
                out[key][name] += v
    return out


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from merged totals.

    Self time is reported as a share of the traced operation time, so a
    layer a workload never enters reads 0 % rather than an absolute
    time; ``trace.op_ms`` gives the scale.
    """
    root = totals["root_s"] or 1.0
    ops = totals["ops"] or 1
    counts = totals["counts"]
    out: dict[str, tuple[float, str]] = {}
    for layer in layers():
        out[f"{layer}.self_pct"] = (100.0 * totals["self_s"].get(layer, 0.0) / root, "%")
    for spec in specs():
        out[f"experiments.{spec}.incl_pct"] = (100.0 * totals["incl_s"].get(spec, 0.0) / root, "%")
    forwards = sum(counts.get(f"nn.forward.{k}", 0) for k in NN_KINDS)
    builds = sum(n for label, n in counts.items() if label.startswith("plan.build."))
    for name, n in (
        ("vm.actions_per_op", counts.get("vm.actions", 0)),
        ("nn.forwards_per_op", forwards),
        ("plan.builds_per_op", builds),
        ("compile.programs_per_op", counts.get("program", 0)),
        ("compile.ops_per_op", counts.get("compile.ops", 0)),
        ("lab.units_computed_per_op", counts.get("experiments", 0)),
    ):
        out[name] = (n / ops, "count")
    return out
