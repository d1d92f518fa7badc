"""The benchmark's workloads: inputs from a seed, a timed loop, checks.

A workload is built from ``(sizes, seed)``; building it and calling
``warmup()`` is set-up.  ``measure(seconds, tracer)`` runs operations
back to back -- one client, closed loop: each starts when the previous
one ends -- until the time is up, and returns their latencies.
``check()`` verifies outputs outside the timed window.  Only public
functions of ``repro`` are called; the tracer, when on, opens one root
span per operation.

``SIZES`` holds each workload's sizes by the name ``BENCHMARK.json``
gives it; the smoke test passes smaller ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIZES = {
    "train-mlp-revolve": {
        "kind": "train", "model": "mlp", "blocks": 24, "width": 64, "classes": 8,
        "samples": 4096, "batch": 16, "slots": 4, "lr": 1e-3,
    },
    "train-cnn-revolve": {
        "kind": "train", "model": "cnn", "convs": 4, "channels": 8, "image": 16,
        "classes": 4, "samples": 1024, "batch": 16, "slots": 3, "lr": 1e-3,
    },
    # every registered family, so a new one is swept and traced as it lands
    "plan-sweep": {"kind": "plan", "lengths": [16, 24, 32, 48], "slots": [2, 3, 4, 8]},
    "lab-cold": {"kind": "lab", "warm": False},
    "lab-warm": {"kind": "lab", "warm": True},
}

#: Training losses hashed into the per-round trajectory digest.
DIGEST_STEPS = 32
#: Batches whose checkpointed gradients are compared with store-all.
CHECK_BATCHES = 8


@dataclass
class Window:
    """Latency in seconds of each operation of one timed window."""

    latencies: list[float]
    failed: int = 0


class _Stop(Exception):
    """Raised from ``on_step`` to end the window; ``Trainer.fit`` aborts on it."""


# ---------------------------------------------------------------------------
# train-*: Trainer.fit under a revolve schedule on the tensor backend
# ---------------------------------------------------------------------------


def _mlp(s: dict, rng: np.random.Generator):
    from repro.autodiff import DenseLayer, ReLULayer, SequentialNet, gaussian_blobs

    layers = []
    for i in range(s["blocks"]):
        layers += [DenseLayer(s["width"], s["width"], rng, name=f"fc{i}"), ReLULayer(name=f"relu{i}")]
    layers.append(DenseLayer(s["width"], s["classes"], rng, name="head"))
    data = gaussian_blobs(s["samples"] // s["classes"], s["classes"], s["width"], rng)
    return SequentialNet(layers), data


def _cnn(s: dict, rng: np.random.Generator):
    from repro.autodiff import (
        ConvLayer, DenseLayer, FlattenLayer, MaxPoolLayer, ReLULayer, SequentialNet, image_blobs,
    )

    layers, cin = [], 3
    for i in range(s["convs"]):
        layers += [
            ConvLayer(cin, s["channels"], 3, rng, padding=1, name=f"conv{i}"),
            ReLULayer(name=f"relu{i}"),
        ]
        cin = s["channels"]
    half = s["image"] // 2
    layers += [
        MaxPoolLayer(2, name="pool"),
        FlattenLayer(name="flatten"),
        DenseLayer(cin * half * half, s["classes"], rng, name="head"),
    ]
    data = image_blobs(s["samples"] // s["classes"], s["classes"], s["image"], rng, channels=3)
    return SequentialNet(layers), data


class Train:
    """One operation is one optimizer step of ``Trainer.fit``.

    Step latency is the time between consecutive ``on_step`` calls, so
    it covers batching, the checkpointed forward/backward and the
    optimizer.  ``on_step`` raising ends the window, the abort path
    ``Trainer.fit`` documents.
    """

    root_label = "trainer"
    #: steps per throughput sample
    chunk = 32

    def __init__(self, sizes: dict, seed: int) -> None:
        from repro.autodiff import SGD, Trainer, TrainerConfig
        from repro.checkpointing import get_strategy

        rng = np.random.default_rng(seed)
        self.net, self.data = (_mlp if sizes["model"] == "mlp" else _cnn)(sizes, rng)
        self.seed = seed
        self.batch = sizes["batch"]
        self.trainer = Trainer(
            self.net,
            SGD(self.net.layers, lr=sizes["lr"]),
            TrainerConfig(
                epochs=10**6, batch_size=self.batch, strategy="revolve",
                slots=sizes["slots"], shuffle_seed=seed,
            ),
        )
        self.schedule = get_strategy("revolve").schedule(len(self.net), sizes["slots"])
        self.losses: list[float] = []

    def _batch(self, i: int):
        sl = slice(i * self.batch, (i + 1) * self.batch)
        return self.data.x[sl], self.data.y[sl]

    def warmup(self) -> None:
        from repro.autodiff import run_schedule

        run_schedule(self.net, self.schedule, *self._batch(0))

    def measure(self, seconds: float, tracer) -> Window:
        stamps: list[float] = []
        failed = 0
        deadline = time.perf_counter() + seconds

        def on_step(cursor, loss: float) -> None:
            nonlocal failed
            tracer.end_op()
            now = time.perf_counter()
            stamps.append(now)
            self.losses.append(loss)
            failed += not math.isfinite(loss)
            if now >= deadline:
                raise _Stop
            tracer.begin_op()

        loss_fn = self.trainer.loss_fn
        if tracer.enabled:
            self.trainer.loss_fn = tracer.wrap(loss_fn, "loss")
        start = time.perf_counter()
        tracer.begin_op()
        try:
            self.trainer.fit(self.data, on_step=on_step)
        except _Stop:
            pass
        finally:
            self.trainer.loss_fn = loss_fn
        return Window(list(np.diff([start, *stamps])), failed)

    def check(self) -> tuple[bool, dict]:
        """Checkpointed loss and gradients equal store-all, bit for bit."""
        from repro.autodiff import run_schedule

        rng = np.random.default_rng([self.seed, 1])
        n = len(self.data) // self.batch
        ok = True
        peak = 0
        for b in rng.choice(n, size=min(CHECK_BATCHES, n), replace=False):
            xb, yb = self._batch(int(b))
            res = run_schedule(self.net, self.schedule, xb, yb)
            loss, grads, _ = self.net.train_step(xb, yb)
            ok = ok and res.loss == loss and res.grads.keys() == grads.keys() and all(
                np.array_equal(res.grads[k], g) for k, g in grads.items()
            )
            peak = max(peak, res.peak_bytes)
        digest = None
        if len(self.losses) >= DIGEST_STEPS:
            head = np.asarray(self.losses[:DIGEST_STEPS], dtype=np.float64)
            digest = hashlib.sha256(head.tobytes()).hexdigest()
        return ok, {"loss_digest": digest, "peak_bytes": peak}


# ---------------------------------------------------------------------------
# plan-sweep: schedule -> compiled -> execute over families x (l, c)
# ---------------------------------------------------------------------------


def _plan_backend(family: str, l: int):
    """The backend each family's plan is priced on."""
    from repro.checkpointing import ChainSpec
    from repro.edge.storage import BITTRAIN_SPARSE, SD_CARD
    from repro.engine import CompressedBackend, SimBackend, TieredBackend

    spec = ChainSpec.homogeneous(l)
    if family.endswith("_zip"):
        return CompressedBackend(spec, BITTRAIN_SPARSE, disk=SD_CARD)
    if family == "disk_revolve" or family.startswith("joint_"):
        return TieredBackend(spec, disk=SD_CARD)
    return SimBackend(spec)


class PlanSweep:
    """One operation is one (family, l, c) point, planned with cold caches.

    Each sweep visits every feasible point once, in an order shuffled by
    the seed, after ``clear_schedule_cache()``.
    """

    root_label = "bench"

    def __init__(self, sizes: dict, seed: int) -> None:
        from repro.checkpointing import available_strategies, get_strategy

        points = [
            (f, l, c)
            for f in available_strategies()
            for l in sizes["lengths"]
            for c in sizes["slots"]
            if get_strategy(f).feasible(l, c)
        ]
        order = np.random.default_rng(seed).permutation(len(points))
        self.points = [points[i] for i in order]
        #: one sweep per throughput sample, so every sample has the same mix
        self.chunk = len(points)

    @staticmethod
    def _point(family: str, l: int, c: int):
        from repro.checkpointing import get_strategy
        from repro.engine import execute

        strategy = get_strategy(family)
        schedule = strategy.schedule(l, c)
        program = strategy.compiled(l, c)
        return execute(schedule, _plan_backend(family, l), compiled=program)

    def _sweep(self, tracer, latencies: list[float]) -> int:
        from repro.checkpointing import clear_schedule_cache

        clear_schedule_cache()
        failed = 0
        for point in self.points:
            t0 = time.perf_counter()
            tracer.begin_op()
            try:
                self._point(*point)
            except Exception:  # a failed point is counted, the sweep goes on
                traceback.print_exc()
                failed += 1
            finally:
                tracer.end_op()
            latencies.append(time.perf_counter() - t0)
        return failed

    def warmup(self) -> None:
        from .tracing import NullTracer

        self._sweep(NullTracer(), [])

    def measure(self, seconds: float, tracer) -> Window:
        # Whole sweeps only, so every window holds the same mix of points;
        # the last one starts if it is expected to end nearer the deadline.
        latencies: list[float] = []
        failed = sweeps = 0
        start = time.perf_counter()
        while True:
            failed += self._sweep(tracer, latencies)
            sweeps += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / sweeps / 2 > seconds:
                return Window(latencies, failed)

    def check(self) -> tuple[bool, dict]:
        """Compiled execution's RunStats equal the interpreted run's."""
        from repro.checkpointing import get_strategy
        from repro.engine import execute

        equal = 0
        for family, l, c in self.points:
            strategy = get_strategy(family)
            schedule = strategy.schedule(l, c)
            interpreted = execute(schedule, _plan_backend(family, l))
            compiled = self._point(family, l, c)
            equal += interpreted == compiled
        return equal == len(self.points), {"points": len(self.points), "equal": equal}


# ---------------------------------------------------------------------------
# lab-*: `repro all` cold (fresh outdir) and warm (populated outdir)
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"^lab cache: (\d+) hits / (\d+) misses", re.M)
_MANIFESTS = re.compile(r"^manifests: [1-9]\d* valid$", re.M)


def _artifact_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every artifact file at the top of an output directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }


class Lab:
    """One operation is one ``repro all --jobs 1`` run.

    Cold runs write into a fresh directory; warm runs (``--manifest-check``)
    reread a directory a cold run filled during set-up.  Runs are fresh
    ``python -m repro`` processes, as a user starts them; with
    ``in_process`` they call ``repro.cli.main`` instead, which lets the
    tracer see inside.  ``--jobs 1`` because parallel cold runs race on a
    shared temporary file name in the artifact store.
    """

    root_label = "bench"
    chunk = 1

    def __init__(self, sizes: dict, seed: int, workdir: Path, in_process: bool = False) -> None:
        from repro.lab import default_units

        self.warm = sizes["warm"]
        self.workdir = Path(workdir)
        self.in_process = in_process
        self.expected = sorted({f for u in default_units() for f, _ in u.outputs})
        self.reference: dict[str, str] | None = None
        self._runs = 0

    def _repro_all(self, outdir: Path, warm: bool) -> tuple[int, str]:
        argv = ["all", "--outdir", str(outdir), "--jobs", "1"]
        if warm:
            argv.append("--manifest-check")
        if self.in_process:
            from repro import cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            return rc, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, text=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout

    def _valid(self, rc: int, out: str, outdir: Path, warm: bool) -> bool:
        """Exit 0, the expected cache summary, and the reference artifacts."""
        summary = _SUMMARY.search(out)
        if rc != 0 or summary is None:
            return False
        hits, misses = int(summary[1]), int(summary[2])
        if warm:
            ok = misses == 0 and _MANIFESTS.search(out) is not None
        else:
            ok = hits == 0 and misses > 0
        digests = _artifact_digests(outdir)
        if self.reference is None:
            self.reference = digests
        return ok and sorted(digests) == self.expected and digests == self.reference

    def _outdir(self) -> Path:
        if self.warm:
            return self.workdir / "warm"
        self._runs += 1
        return self.workdir / f"cold{self._runs}"

    def warmup(self) -> None:
        # Compiles the package's bytecode once, so no timed run pays for it.
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        # Warm runs need a filled directory; in-process cold runs need the
        # process's memo caches as warm as every later run will find them.
        if self.warm or self.in_process:
            outdir = self.workdir / "warm"
            rc, out = self._repro_all(outdir, warm=False)
            if not self._valid(rc, out, outdir, warm=False):
                raise RuntimeError(f"cold run into {outdir} failed (exit {rc})")

    def measure(self, seconds: float, tracer) -> Window:
        from repro.checkpointing import clear_schedule_cache

        latencies: list[float] = []
        failed = 0
        start = time.perf_counter()
        while True:
            outdir = self._outdir()
            if self.in_process and not self.warm:
                clear_schedule_cache()
            t0 = time.perf_counter()
            tracer.begin_op()
            try:
                rc, out = self._repro_all(outdir, self.warm)
            finally:
                tracer.end_op()
            latencies.append(time.perf_counter() - t0)
            failed += not self._valid(rc, out, outdir, self.warm)
            if not self.warm:
                shutil.rmtree(outdir, ignore_errors=True)
            if time.perf_counter() - start + statistics.median(latencies) / 2 > seconds:
                return Window(latencies, failed)

    def check(self) -> tuple[bool, dict]:
        digest = None
        if self.reference is not None:
            digest = hashlib.sha256(repr(sorted(self.reference.items())).encode()).hexdigest()
        return self.reference is not None, {"artifact_digest": digest}


def make_workload(sizes: dict, seed: int, workdir: Path, in_process: bool = False):
    """The workload object for ``sizes["kind"]``."""
    kind = sizes["kind"]
    if kind == "train":
        return Train(sizes, seed)
    if kind == "plan":
        return PlanSweep(sizes, seed)
    if kind == "lab":
        return Lab(sizes, seed, workdir, in_process)
    raise ValueError(f"unknown workload kind {kind!r}")
