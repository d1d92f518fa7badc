"""Spill checkpoints to the SD card: two-level Revolve on a Waggle node.

The ODROID XU4 pairs 2 GB RAM with a 32 GB SD card.  Pure in-memory
Revolve on LinearResNet-152 with very few RAM slots recomputes heavily;
parking a handful of checkpoints on flash (disk-revolve, the paper's
reference [1]) removes most of that recomputation.  This example sweeps
RAM slots and I/O costs and prints the full trade-off, then verifies one
plan action-by-action on the virtual machine.

Run: ``python examples/two_tier_checkpointing.py``
"""

from repro.checkpointing import (
    ChainSpec,
    disk_revolve_cost,
    disk_revolve_schedule,
    disk_revolve_splits,
    opt_forwards,
)
from repro.engine import TieredBackend, execute

L = 152  # LinearResNet-152


def main() -> None:
    print(f"Two-level checkpointing on a {L}-step chain")
    print(f"{'RAM slots':>10} {'I/O cost':>9} {'mem-only':>9} {'two-level':>10} {'saved':>7} {'disk ckpts':>11}")
    for c in (1, 2, 3, 5, 8):
        for d in (0.25, 1.0, 4.0):
            mem_only = opt_forwards(L, c)
            two = disk_revolve_cost(L, c, d, d)
            n_disk = len(disk_revolve_splits(L, c, d, d))
            saved = 1.0 - two / mem_only
            print(
                f"{c:>10} {d:>9.2f} {mem_only:>9} {two:>10.1f} "
                f"{saved:>6.0%} {n_disk:>11}"
            )

    # Verify one plan end to end on the virtual machine.
    c, d = 3, 1.0
    sch = disk_revolve_schedule(L, c, d, d)
    run = execute(sch, TieredBackend(ChainSpec.homogeneous(L)))
    disk = run.tier("disk")
    measured = run.forward_steps + d * disk.writes + d * disk.reads
    print(f"\nVerified schedule (RAM slots={c}, I/O cost={d}):")
    print(f"  actions             : {len(sch)}")
    print(f"  pure forward steps  : {run.forward_steps}")
    print(f"  disk writes/reads   : {disk.writes}/{disk.reads}")
    print(f"  peak RAM slots      : {run.tier('memory').peak_slots} (<= {c})")
    print(f"  measured total cost : {measured:.1f} "
          f"(DP optimum {disk_revolve_cost(L, c, d, d):.1f})")


if __name__ == "__main__":
    main()
