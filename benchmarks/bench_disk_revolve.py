"""E14 (extension) — two-level checkpointing on the node's SD card.

The paper cites INRIA's disk-revolve as [1]; Waggle nodes pair 2 GB RAM
with a ≥32 GB SD card, so the natural extension is to spill checkpoints
to flash.  This bench sweeps memory-slot counts and disk-cost ratios on
LinearResNet-152, asserting that the tier strictly reduces total cost
whenever disk I/O is cheaper than the recomputation it avoids, and
benchmarks the DP + schedule generation + tiered validation.
"""

from repro.checkpointing import (
    ChainSpec,
    disk_revolve_cost,
    disk_revolve_schedule,
    disk_revolve_splits,
    opt_forwards,
)
from repro.engine import TieredBackend, execute

L = 152
SLOTS = (1, 2, 3, 5, 8)
DISK_COSTS = (0.25, 1.0, 4.0)  # write=read, in forward units


def _sweep():
    rows = []
    spec = ChainSpec.homogeneous(L)
    for c in SLOTS:
        for d in DISK_COSTS:
            sch = disk_revolve_schedule(L, c, d, d)
            run = execute(sch, TieredBackend(spec))
            disk = run.tier("disk")
            total = run.forward_steps + d * disk.writes + d * disk.reads
            rows.append((c, d, total, disk.writes, run.tier("memory").peak_slots, disk.reads))
    return rows


def test_disk_revolve_sweep(benchmark, outdir):
    rows = benchmark.pedantic(_sweep, rounds=3, iterations=1)

    lines = ["mem_slots,disk_cost,total_cost,disk_writes,peak_mem_slots,memory_only_cost"]
    for c, d, cost, writes, peak, _ in rows:
        lines.append(f"{c},{d},{cost},{writes},{peak},{opt_forwards(L, c)}")
    (outdir / "disk_revolve.csv").write_text("\n".join(lines) + "\n")

    for c, d, cost, writes, peak, reads in rows:
        mem_only = opt_forwards(L, c)
        # Schedule cost equals the DP optimum...
        assert abs(cost - disk_revolve_cost(L, c, d, d)) < 1e-9
        # ...never exceeds memory-only Revolve, and never beats the
        # single-sweep floor.
        assert cost <= mem_only + 1e-9
        assert cost >= L - 1 - 1e-9
        assert peak <= c
        # The schedule pages exactly the planned splits: x_0 plus one
        # write per split, and every segment base but the rightmost is
        # read back once.
        splits = disk_revolve_splits(L, c, d, d)
        assert writes == (len(splits) + 1 if splits else 0)
        assert reads == max(0, writes - 1)

    # Headline: at 3 memory slots with SD I/O ~1 forward-unit, the disk
    # tier cuts total reversal cost by > 2x.
    by = {(c, d): cost for c, d, cost, _, _, _ in rows}
    assert by[(3, 1.0)] < opt_forwards(L, 3) / 2
    # Cheap disk approaches the sweep floor (within ~1.5x of l-1,
    # versus 2.7x for memory-only at 8 slots).
    assert by[(8, 0.25)] < 1.5 * (L - 1)
    assert opt_forwards(L, 8) > 2.5 * (L - 1)
