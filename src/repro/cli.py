"""Command-line regeneration of every paper artifact.

Usage (installed as both the ``repro-edge`` and ``repro`` scripts)::

    repro-edge table1 [--source ours|paper] [--csv | --compare]
    repro-edge table2 | table3 | section5 | sensitivity | extended
    repro-edge figure1 [--panel a|b|c|d] [--source ours|paper] [--csv]
    repro-edge ablation [--strategy revolve --strategy sqrt ...] | summary
    repro-edge disk-revolve [--length 152] [--mem-slots 3] [--disk-cost inf]
    repro-edge viewpoint [--subjects 120] [--format json]
    repro-edge megafleet --devices 200000 --jobs 2
    repro-edge list                         # registered experiment specs
    repro-edge show figure1                 # params, renderers, cache key
    repro-edge run figure1 --param panel=d --format csv
    repro-edge all --jobs 4 [--force] [--manifest-check] [--telemetry]
    repro-edge obs report artifacts [--json] [--chrome-trace merged.json]
    repro-edge strategies [--length 24] [--budget 6]
    repro-edge exec [--strategy disk_revolve --backend tiered --trace t.json]
    repro-edge trace figure1 --out trace.json   # any command, traced

Every experiment command (the paper artifacts ``table1`` ... ``summary``
and the edge analyses ``profile`` ... ``viewpoint``) is generated from
the :mod:`repro.lab` registry: each spec becomes a command whose flags
mirror its typed params, plus ``--format`` and ``--trace``; only
``megafleet`` adds ``--jobs``/``--shard-devices``, which never reach
the cache key.  ``all`` runs every default unit through the
content-addressed artifact cache — a second run into the same
``--outdir`` recomputes nothing — and ``trace`` wraps any other
subcommand in the :mod:`repro.obs` tracer and writes the exported
trace (Chrome ``trace_event`` JSON by default — open it in
chrome://tracing or https://ui.perfetto.dev).

``--telemetry`` on ``all``/``run`` records per-unit runlogs (worker
spans, metric deltas, wall/CPU/max-RSS profiles) under
``<outdir>/telemetry/``; ``obs report`` then renders the campaign
(ASCII timeline + tables, ``--json``, or a merged ``--chrome-trace``
with one lane per worker process).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lab, obs
from .checkpointing import available_strategies, get_strategy, schedule_cache_info
from .edge.storage import storage_profiles
from .errors import ReproError, at_least
from .experiments import run_megafleet_payload  # importing registers every lab spec

__all__ = ["main", "build_parser"]


def _add_experiment_parsers(sub: argparse._SubParsersAction) -> None:
    """One subcommand per registered spec, flags mirroring its params."""
    for name in lab.available_experiments():
        spec = lab.get_spec(name)
        sp = sub.add_parser(name, help=spec.title)
        for param in spec.params:
            flag = "--" + (param.cli or param.name.replace("_", "-"))
            kwargs: dict = {"dest": f"p_{param.name}", "type": param.type}
            if param.choices is not None:
                kwargs["choices"] = param.choices
            if param.help:
                kwargs["help"] = param.help
            if param.repeated:
                sp.add_argument(flag, action="append", default=None, **kwargs)
            else:
                sp.add_argument(flag, default=None, **kwargs)
        if "csv" in spec.renderers:
            sp.add_argument("--csv", action="store_true", help="emit CSV instead of ASCII")
        if "compare" in spec.renderers:
            sp.add_argument(
                "--compare", action="store_true", help="side-by-side with paper values"
            )
        sp.add_argument(
            "--format",
            dest="fmt",
            choices=sorted(spec.renderers),
            default=None,
            help="output renderer (default: ascii)",
        )
        sp.add_argument("--trace", metavar="FILE", help="write a Chrome-trace of the run to FILE")
        if name == "megafleet":
            sp.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes for device shards (default: 1)",
            )
            sp.add_argument(
                "--shard-devices", type=int, default=None,
                help="devices per shard (rounded up to the 4096 block size)",
            )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-edge",
        description="Regenerate artifacts of 'Training on the Edge' (IPPS 2019)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    _add_experiment_parsers(sub)

    sub.add_parser("list", help="list registered experiment specs")

    sp = sub.add_parser("show", help="describe one registered experiment spec")
    sp.add_argument("spec", choices=lab.available_experiments(), metavar="SPEC")

    sp = sub.add_parser("run", help="run one registered experiment spec")
    sp.add_argument("spec", choices=lab.available_experiments(), metavar="SPEC")
    sp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="spec parameter (JSON value or bare string; repeatable)",
    )
    sp.add_argument("--format", dest="fmt", default="ascii", help="output renderer")
    sp.add_argument("--outdir", default=None, help="cache through this artifact directory")
    sp.add_argument("--force", action="store_true", help="recompute even if cached")
    sp.add_argument(
        "--telemetry",
        action="store_true",
        help="record per-unit runlogs under <outdir>/telemetry (needs --outdir)",
    )
    sp.add_argument("--trace", metavar="FILE", help="write a Chrome-trace of the run to FILE")

    sp = sub.add_parser("strategies", help="list registered checkpoint strategies")
    sp.add_argument("--length", type=int, default=24, help="chain length l")
    sp.add_argument("--budget", type=int, default=6, help="checkpoint slot budget c")
    sp.add_argument("--bwd-ratio", type=float, default=1.0, help="backward/forward cost ratio")

    sp = sub.add_parser(
        "exec",
        help="execute a strategy's schedule on an engine backend (sim/tensor/tiered)",
    )
    sp.add_argument("--strategy", choices=available_strategies(), default="revolve")
    sp.add_argument("--length", type=int, default=24, help="chain length l")
    sp.add_argument("--slots", type=int, default=4, help="checkpoint slot budget c")
    sp.add_argument(
        "--backend",
        choices=("sim", "tensor", "tiered"),
        default="sim",
        help="engine backend: analytic, real tensors, or tiered storage",
    )
    sp.add_argument(
        "--act-kb", type=float, default=256.0, help="per-activation kB (sim/tiered accounting)"
    )
    sp.add_argument(
        "--storage",
        choices=tuple(storage_profiles()),
        default="sd-card",
        help="disk-tier storage profile (tiered backend)",
    )
    sp.add_argument(
        "--compress",
        choices=("lossless", "bittrain", "fp16"),
        help="compress checkpoints with this codec (implies the tiered backend)",
    )
    sp.add_argument("--seed", type=int, default=0, help="net/batch seed (tensor backend)")
    sp.add_argument(
        "--compile",
        action="store_true",
        help="print the schedule's compiled program IR (opcodes, costs, digest)",
    )
    sp.add_argument("--trace", metavar="FILE", help="write a Chrome-trace of the run to FILE")

    sp = sub.add_parser(
        "trace",
        help="run any other subcommand under the obs tracer and export the trace",
    )
    sp.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="wrapped command and its arguments, plus --out/--format/--no-probe",
    )

    sp = sub.add_parser(
        "all", help="regenerate every artifact into a directory (cache-aware)"
    )
    sp.add_argument("--outdir", default="artifacts")
    sp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel compute processes (default: all cores)",
    )
    sp.add_argument("--force", action="store_true", help="ignore the artifact cache")
    sp.add_argument(
        "--manifest-check",
        action="store_true",
        help="validate every provenance manifest after the run",
    )
    sp.add_argument(
        "--telemetry",
        action="store_true",
        help="record per-unit runlogs + campaign.json under <outdir>/telemetry",
    )

    sp = sub.add_parser(
        "obs", help="observability utilities over recorded campaign telemetry"
    )
    obs_sub = sp.add_subparsers(dest="obs_command", required=True)
    rp = obs_sub.add_parser(
        "report",
        help="render the campaign telemetry of a --telemetry run directory",
    )
    rp.add_argument("outdir", help="artifact directory (or its telemetry/ subdir)")
    rp.add_argument(
        "--json", action="store_true", help="emit the summary as JSON instead of text"
    )
    rp.add_argument(
        "--chrome-trace",
        metavar="FILE",
        help="also write the merged Chrome trace (one lane per worker) to FILE",
    )
    return p


# -- registry-generated experiment commands --------------------------------


def _experiment_command(args: argparse.Namespace) -> str:
    """Alias path: compute in memory, render in the requested format."""
    spec = lab.get_spec(args.command)
    given = {
        p.name: getattr(args, f"p_{p.name}")
        for p in spec.params
        if getattr(args, f"p_{p.name}") is not None
    }
    params = spec.validate_params(given)
    fmt = args.fmt
    if fmt is None:
        if getattr(args, "compare", False):
            fmt = "compare"
        elif getattr(args, "csv", False):
            fmt = "csv"
        else:
            fmt = "ascii"
    if args.command == "megafleet":
        # Same payload as the cached spec, sharded by knobs the key never sees.
        payload = run_megafleet_payload(
            params, jobs=args.jobs, shard_devices=args.shard_devices
        )
    else:
        payload = lab.compute_payload(args.command, params)
    return spec.renderers[fmt](payload)


def _parse_run_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value  # bare strings need no quotes
    return params


def _run(args: argparse.Namespace) -> str:
    spec = lab.get_spec(args.spec)
    params = spec.validate_params(_parse_run_params(args.param))
    if args.fmt not in spec.renderers:
        raise SystemExit(
            f"spec {args.spec!r} has no {args.fmt!r} renderer "
            f"(choose from: {', '.join(sorted(spec.renderers))})"
        )
    if args.outdir is None:
        if args.telemetry:
            raise SystemExit("--telemetry needs --outdir (runlogs live under it)")
        return spec.renderers[args.fmt](lab.compute_payload(args.spec, params))
    store = lab.ArtifactStore(args.outdir)
    # One rendered output under a key-derived stem (never one of `repro
    # all`'s), so the run leaves a manifest like every default unit.
    stem = f"{args.spec}-{lab.unit_key(spec, params)[:16]}"
    ext = args.fmt if args.fmt in ("csv", "json") else "txt"
    unit = lab.Unit(args.spec, params, outputs=((f"{stem}.{ext}", args.fmt),), stem=stem)
    report = lab.run_units([unit], store, force=args.force, telemetry=args.telemetry)
    payload = store.load_payload(report.outcomes[-1].key)
    out = (
        spec.renderers[args.fmt](payload).rstrip("\n")
        + "\n"
        + report.summary_line()
    )
    if report.telemetry_dir is not None:
        out += f"\ntelemetry: {report.telemetry_dir}"
    return out


def _list(_args: argparse.Namespace) -> str:
    names = lab.available_experiments()
    lines = [f"{len(names)} registered experiment specs:"]
    for name in names:
        spec = lab.get_spec(name)
        params = ", ".join(p.name for p in spec.params) or "-"
        lines.append(f"  {name:<12} {spec.title}  [params: {params}]")
    return "\n".join(lines)


def _show(args: argparse.Namespace) -> str:
    spec = lab.get_spec(args.spec)
    defaults = spec.validate_params()
    lines = [
        f"{spec.name}: {spec.title}",
        f"  code fingerprint : {spec.fingerprint()[:16]}",
        f"  default cache key: {lab.unit_key(spec, defaults)[:16]}",
        f"  renderers        : {', '.join(sorted(spec.renderers))}",
    ]
    if spec.params:
        lines.append("  params:")
        for p in spec.params:
            extra = f", choices={sorted(p.choices)}" if p.choices else ""
            extra += f", min={p.min}" if p.min is not None else ""
            rep = "repeated " if p.repeated else ""
            lines.append(
                f"    {p.name:<14} {rep}{p.type.__name__}"
                f" (default={p.default!r}{extra})"
            )
    if spec.deps:
        lines.append("  deps:")
        for dep_name, dep_params in spec.deps:
            lines.append(f"    {dep_name} {json.dumps(dep_params, sort_keys=True)}")
    if spec.default_units:
        lines.append("  default artifacts:")
        for ud in spec.default_units:
            files = ", ".join(f for f, _ in ud.outputs) or "-"
            lines.append(f"    {json.dumps(dict(ud.params), sort_keys=True)} -> {files}")
    return "\n".join(lines)


def _all(args: argparse.Namespace) -> str:
    """Regenerate every default artifact through the content cache."""
    store = lab.ArtifactStore(args.outdir)
    jobs = args.jobs if args.jobs is not None else lab.default_jobs()
    report = lab.run_units(
        lab.default_units(), store, jobs=jobs, force=args.force,
        telemetry=args.telemetry,
    )
    lines = []
    for o in report.outcomes:
        verb = "wrote" if (o.computed or o.written) else "cached"
        for fname in o.outputs:
            lines.append(f"{verb} {store.artifact_path(fname)}")
    if args.manifest_check:
        n = lab.check_manifests(store)
        lines.append(f"manifests: {n} valid")
    lines.append(report.summary_line())
    if report.telemetry_dir is not None:
        lines.append(f"telemetry: {report.telemetry_dir}")
    return "\n".join(lines)


def _obs(args: argparse.Namespace) -> str:
    """``obs report``: render recorded campaign telemetry."""
    from .obs import aggregate

    try:
        campaign = aggregate.load_campaign(args.outdir)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    extra = ""
    if args.chrome_trace:
        aggregate.write_merged_trace(args.chrome_trace, campaign)
        extra = f"\nmerged trace written to {args.chrome_trace}"
    if args.json:
        return json.dumps(aggregate.campaign_summary(campaign), indent=1) + extra
    return aggregate.render_report(aggregate.campaign_summary(campaign)) + extra


# -- hand-written (non-experiment) commands --------------------------------


def _strategies(args: argparse.Namespace) -> str:
    """Registry listing with a per-strategy ρ/slots table at one (l, c)."""
    l, c, r = args.length, args.budget, args.bwd_ratio
    names = available_strategies()
    lines = [
        f"Registered checkpoint strategies ({len(names)}) at "
        f"l={l}, slot budget={c}, bwd/fwd ratio={r:g}",
        f"{'strategy':<14}{'feasible':>9}{'rho':>9}{'extra fwd':>11}{'peak slots':>12}",
    ]
    for name in names:
        strat = get_strategy(name)
        if strat.feasible(l, c):
            lines.append(
                f"{name:<14}{'yes':>9}{strat.rho(l, c, r):>9.3f}"
                f"{strat.extra_forwards(l, c):>11}{strat.peak_slots(l, c):>12}"
            )
        else:
            lines.append(f"{name:<14}{'no':>9}{'inf':>9}{'-':>11}{'-':>12}")
    info = schedule_cache_info()
    lines.append(
        f"schedule cache: {info.schedules} schedules, {info.stats} stats, "
        f"{info.hits} hits / {info.misses} misses"
    )
    return "\n".join(lines)


def _exec(args: argparse.Namespace) -> str:
    """Run one strategy's schedule through a chosen engine backend."""
    from .checkpointing import ChainSpec
    from .engine import (
        CompressedBackend,
        SimBackend,
        TieredBackend,
        action_span_hook,
        execute,
        sim_event_hook,
    )
    from .units import KB

    act_bytes = int(at_least("act_kb", args.act_kb) * KB)
    strat = get_strategy(args.strategy)
    l, c = args.length, args.slots
    if not strat.feasible(l, c):
        return f"strategy {args.strategy!r} cannot reverse l={l} within {c} slots"
    sch = strat.schedule(l, c)
    codec = None
    if args.compress is not None:
        if args.backend == "tensor":
            return "--compress applies to the sim/tiered engine backends only"
        from .checkpointing import COMPRESS_SLOT_BASE, compressed_variant
        from .edge.storage import compression_models

        codec = compression_models()[args.compress]
        if all(a.arg < COMPRESS_SLOT_BASE for a in sch.actions):
            # Lift a plain family's slots into the compressed band so the
            # codec applies; zip families already carry the flag.
            sch = compressed_variant(sch, sch.strategy)
    backend_name = args.backend if codec is None else f"compressed({args.compress})"
    header = (
        f"Engine run: strategy={sch.strategy} l={l} slots={c} "
        f"backend={backend_name}"
    )

    if getattr(args, "compile", False):
        import numpy as np

        from .engine import OPCODE_NAMES

        program = sch.program
        spec = ChainSpec.homogeneous(l, act_bytes=act_bytes)
        run = execute(sch, SimBackend(spec))
        counts = ", ".join(
            f"{name} {n}"
            for name, n in zip(OPCODE_NAMES, np.bincount(program.opcodes, minlength=5))
            if n
        )
        fmt = dict(threshold=64, edgeitems=24, max_line_width=78)
        array_indent = "\n" + " " * 22
        return "\n".join(
            [
                f"Compiled program: strategy={program.strategy} l={l} slots={c}",
                f"  ops               : {len(program)} ({counts})",
                "  opcodes           : "
                + np.array2string(program.opcodes, **fmt).replace("\n", array_indent),
                "  args              : "
                + np.array2string(program.args, **fmt).replace("\n", array_indent),
                f"  cost totals       : forward {run.forward_cost:g} + "
                f"replay {run.replay_cost:g} + backward {run.backward_cost:g} "
                f"= {run.forward_cost + run.replay_cost + run.backward_cost:g}",
                f"  peak              : {run.peak_slots} slots, "
                f"{run.peak_bytes:,} live bytes",
                f"  digest            : sha256:{program.digest}",
            ]
        )

    if args.backend == "tensor":
        import numpy as np

        from .autodiff import DenseLayer, ReLULayer, SequentialNet, gaussian_blobs
        from .autodiff.executor import run_schedule

        rng = np.random.default_rng(args.seed)
        layers = []
        prev = 6
        for i in range(l - 1):
            if i % 2 == 0:
                layers.append(DenseLayer(prev, 8, rng, name=f"fc{i}"))
                prev = 8
            else:
                layers.append(ReLULayer(name=f"r{i}"))
        layers.append(DenseLayer(prev, 3, rng, name="head"))
        net = SequentialNet(layers, name="exec-probe")
        data = gaussian_blobs(16, 3, 6, rng)
        res = run_schedule(net, sch, data.x, data.y)
        return "\n".join(
            [
                header,
                f"  loss              : {res.loss:.4f}",
                f"  forward steps     : {res.forward_steps} "
                f"(+{res.replay_steps} adjoint replays)",
                f"  peak live bytes   : {res.peak_bytes:,} "
                f"({res.peak_slot_bytes:,} in slots)",
            ]
        )

    spec = ChainSpec.homogeneous(l, act_bytes=act_bytes)
    tracer = obs.get_tracer()
    if codec is None and args.backend == "sim":
        backend = SimBackend(spec)
        hook = sim_event_hook(tracer) if tracer.enabled else None
    else:
        disk = storage_profiles()[args.storage]
        if codec is None:
            backend = TieredBackend(spec, disk=disk)
        else:
            backend = CompressedBackend(spec, codec, disk=disk)
        hook = action_span_hook(tracer) if tracer.enabled else None
    run = execute(sch, backend, on_step=hook)
    lines = [
        header,
        f"  forward steps     : {run.forward_steps} (cost {run.forward_cost:g})",
        f"  adjoint replays   : {run.replay_steps}",
        f"  peak slots        : {run.peak_slots}, peak bytes {run.peak_bytes:,}",
        f"  snapshots/restores: {run.snapshots_taken}/{run.restores}",
    ]
    if run.tiers:
        lines.append(f"  transfer time     : {run.transfer_seconds:.3f} s")
        for t in run.tiers:
            priced = "" if t.name == "memory" else f" [{args.storage}]"
            lines.append(
                f"    {t.name:<6} tier: "
                f"write {t.writes} ops / {t.bytes_written:,} B / {t.write_seconds:.3f} s | "
                f"read {t.reads} ops / {t.bytes_read:,} B / {t.read_seconds:.3f} s | "
                f"peak {t.peak_slots} slots ({t.peak_bytes:,} B){priced}"
            )
    if run.compression is not None:
        z = run.compression
        lines.append(
            f"  compression       : {z.codec} (ratio {z.ratio:g}) — "
            f"{z.compress_calls} compress / {z.decompress_calls} decompress, "
            f"{z.bytes_saved:,} B saved, codec time {z.codec_seconds:.3f} s"
        )
        if z.fidelity_loss:
            lines.append(f"  fidelity loss     : {z.fidelity_loss:g}")
    return "\n".join(lines)


def _trace_probe() -> None:
    """A miniature traced training run anchoring every core span category.

    Most artifact commands are analytic (no Trainer, no executor), so a
    bare trace of them would miss the epoch/batch/action spans that make
    traces comparable across experiments.  The probe trains a 6-layer
    net for two epochs under a Revolve schedule, seeding the trace with
    measured ``epoch``/``batch``/``action``/``cache`` spans.
    """
    import numpy as np

    from .autodiff import (
        DenseLayer,
        Momentum,
        ReLULayer,
        SequentialNet,
        Trainer,
        TrainerConfig,
        gaussian_blobs,
    )

    rng = np.random.default_rng(0)
    layers = []
    prev = 6
    for i in range(5):
        layers.append(DenseLayer(prev, 8, rng, name=f"fc{i}"))
        layers.append(ReLULayer(name=f"r{i}"))
        prev = 8
    layers.append(DenseLayer(prev, 3, rng, name="head"))
    net = SequentialNet(layers)
    data = gaussian_blobs(32, 3, 6, rng)
    trainer = Trainer(
        net,
        Momentum(net.layers, lr=0.02),
        TrainerConfig(epochs=2, batch_size=16, strategy="revolve", slots=3),
    )
    trainer.fit(data)
    trainer.evaluate(data)


def _trace(raw: list[str]) -> str:
    """``trace`` subcommand: run any other command under a live tracer."""
    tp = argparse.ArgumentParser(prog="repro-edge trace")
    tp.add_argument("--out", default="trace.json", help="export file path")
    tp.add_argument(
        "--format",
        choices=("chrome", "jsonl", "summary"),
        default="chrome",
        help="export format (chrome = trace_event JSON for Perfetto)",
    )
    tp.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the miniature traced training run prepended to the trace",
    )
    tp.add_argument("wrapped", help="subcommand to run traced")
    args, rest = tp.parse_known_args(raw)
    if args.wrapped == "trace":
        tp.error("cannot trace the trace command itself")
    wrapped_args = build_parser().parse_args([args.wrapped] + rest)
    with obs.tracing() as tracer:
        if not args.no_probe:
            with tracer.span("probe", category="train"):
                _trace_probe()
        out = _dispatch(wrapped_args)
    metrics = obs.get_metrics()
    if args.format == "chrome":
        obs.write_chrome_trace(args.out, tracer, metrics)
    elif args.format == "jsonl":
        obs.write_jsonl(args.out, tracer, metrics)
    else:
        import pathlib

        pathlib.Path(args.out).write_text(obs.summary(tracer, metrics) + "\n")
    n_spans = len(tracer.spans())
    cats = ",".join(sorted(tracer.categories()))
    footer = (
        f"trace: {n_spans} spans, {len(tracer.events())} events "
        f"(categories: {cats})\ntrace written to {args.out} ({args.format})"
    )
    return out.rstrip("\n") + "\n" + footer


_HANDLERS = {
    "list": _list,
    "show": _show,
    "run": _run,
    "all": _all,
    "strategies": _strategies,
    "exec": _exec,
    "trace": lambda a: _trace(a.args),
    "obs": _obs,
}


def _dispatch(args: argparse.Namespace) -> str:
    # Anything without a hand-written handler is a registry-generated spec.
    return _HANDLERS.get(args.command, _experiment_command)(args)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path:
            # --trace FILE on a subcommand: same machinery, chrome format.
            with obs.tracing() as tracer:
                out = _dispatch(args)
            obs.write_chrome_trace(trace_path, tracer, obs.get_metrics())
            out = out.rstrip("\n") + f"\ntrace written to {trace_path}"
        else:
            out = _dispatch(args)
    except ReproError as exc:
        # Bad input is a usage error: argparse's message shape and exit code.
        sys.stderr.write(f"repro-edge: error: {exc}\n")
        raise SystemExit(2) from None
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
