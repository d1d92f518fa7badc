"""Compression-aware checkpointing: frontier dominance and compile-path
overhead gates.

Two things are pinned here and gated in CI via ``BENCH_compression.json``:

* **frontier dominance margins** — executing the compressed frontier
  (:func:`~repro.checkpointing.measure_frontier` over the four
  compressed families) on Figure-1 block chains with the BitTrain-like
  sparsity model, at least one compressed family must strictly reduce
  peak bytes vs pure ``revolve`` at equal-or-better wall time on some
  depth ≥ 34 panel, with gradient fidelity inside the codec's declared
  bound.  The per-depth margins are emitted so CI runs can be compared
  over time.
* **compile-path overhead** — compiling a compressed-band schedule must
  cost ≤ 1.05x compiling its uncompressed twin, as the median of paired
  per-round ratios (both compiles timed back to back each round, so host
  noise cancels in the ratio).  The band is a flag in the ordinary
  ``args`` lane of the program IR, so the compiler does no extra work per
  action; this gate keeps it that way.

A lossless-collapse check rides along: under the identity codec the
compressed frontier points must land exactly on their pure families.
"""

from __future__ import annotations

from repro.checkpointing import compressed_variant, measure_frontier
from repro.checkpointing.revolve import revolve_schedule
from repro.engine import compile_schedule
from repro.edge.storage import BITTRAIN_SPARSE, LOSSLESS, SD_CARD
from repro.experiments.figure1 import COMPRESSED_FAMILIES, _joint_spec

from paired import paired_ratio

C = 3
#: Figure-1 depths for the dominance sweep; the gate needs one >= 34.
DEPTHS = (34, 50, 101)
BATCH, IMAGE = 8, 224  # panel b
UNIT_SECONDS = 1.0 / 30e9
COMPILE_SIZES = ((60, 3), (152, 3), (152, 8))
#: A compile takes well under a millisecond and host noise comes in
#: spikes, so the gate takes the median of many short paired rounds:
#: with 15 rounds the median still swung past 1.05x on a shared 2-vCPU
#: host, with 201 it stayed within 1.02x.
REPEATS = 201
NUMBER = 3
MAX_COMPILE_OVERHEAD = 1.05


def test_frontier_dominance_and_compile_overhead(outdir, bench_json):
    margins = []
    strict = 0
    rows = []
    for depth in DEPTHS:
        spec = _joint_spec(depth, BATCH, IMAGE)
        pts = {
            p.strategy: p
            for p in measure_frontier(
                spec,
                C,
                COMPRESSED_FAMILIES,
                SD_CARD,
                codec=BITTRAIN_SPARSE,
                unit_seconds=UNIT_SECONDS,
            )
        }
        base = pts["revolve"]
        dominated = False
        for name in ("revolve_zip", "joint_zip"):
            p = pts[name]
            assert 0.0 <= p.fidelity_loss <= BITTRAIN_SPARSE.fidelity_loss, (depth, name)
            if p.peak_bytes < base.peak_bytes and p.wall_seconds <= base.wall_seconds:
                dominated = True
        if dominated:
            strict += 1
        best = min(
            (pts["revolve_zip"], pts["joint_zip"]),
            key=lambda p: (p.peak_bytes, p.wall_seconds),
        )
        margins.append(
            {
                "depth": depth,
                "slots": C,
                "codec": BITTRAIN_SPARSE.name,
                "dominates": dominated,
                "peak_margin_bytes": base.peak_bytes - best.peak_bytes,
                "wall_margin_s": base.wall_seconds - best.wall_seconds,
            }
        )
        rows.extend(pts.values())
    assert strict >= 1, "no compressed family dominated revolve on any depth >= 34"

    # Lossless collapse: identity codec -> pure-family measurements.
    spec = _joint_spec(34, BATCH, IMAGE)
    pts = {
        p.strategy: p
        for p in measure_frontier(
            spec, C, COMPRESSED_FAMILIES, SD_CARD, codec=LOSSLESS, unit_seconds=UNIT_SECONDS
        )
    }
    assert (pts["revolve_zip"].peak_bytes, pts["revolve_zip"].wall_seconds) == (
        pts["revolve"].peak_bytes,
        pts["revolve"].wall_seconds,
    )
    assert (pts["joint_zip"].peak_bytes, pts["joint_zip"].wall_seconds) == (
        pts["joint_time"].peak_bytes,
        pts["joint_time"].wall_seconds,
    )

    # Compile-path overhead: flagged args must not slow the compiler.
    compile_overhead = {}
    for l, c in COMPILE_SIZES:
        plain = revolve_schedule(l, c)
        zipped = compressed_variant(plain, "revolve_zip")
        ratio, plain_s, zip_s = paired_ratio(
            lambda: compile_schedule(plain),
            lambda: compile_schedule(zipped),
            repeats=REPEATS,
            number=NUMBER,
        )
        compile_overhead[f"l{l}_c{c}"] = {
            "plain_s": plain_s,
            "zip_s": zip_s,
            "ratio": ratio,
        }
        assert ratio <= MAX_COMPILE_OVERHEAD, (
            f"compiling revolve_zip(l={l}, c={c}) cost {ratio:.3f}x plain"
        )

    lines = [
        "depth,strategy,codec,slots,extra_forwards,peak_bytes,peak_memory_bytes,"
        "bytes_saved,fidelity_loss,transfer_s,wall_s"
    ]
    for depth, chunk in zip(DEPTHS, range(0, len(rows), 4)):
        for p in rows[chunk : chunk + 4]:
            lines.append(
                f"{depth},{p.strategy},{p.codec},{p.slots},{p.extra_forwards},"
                f"{p.peak_bytes},{p.peak_memory_bytes},{p.bytes_saved},"
                f"{p.fidelity_loss},{p.transfer_seconds:.4f},{p.wall_seconds:.4f}"
            )
    (outdir / "compression_frontier.csv").write_text("\n".join(lines) + "\n")

    bench_json(
        "compression",
        {
            "slots": C,
            "codec": BITTRAIN_SPARSE.name,
            "panel": {"batch": BATCH, "image": IMAGE},
            "margins": margins,
            "strict_dominations": strict,
            "compile_overhead": compile_overhead,
            "max_compile_overhead": MAX_COMPILE_OVERHEAD,
        },
    )
