"""Edge-device models and a small catalog.

The paper's reference platform is the Waggle node's payload computer, an
ODROID XU4 (Samsung Exynos 5422: 4×A15 + 4×A7, Mali-T628 MP6, 2 GB
LPDDR3, SD storage).  Compute throughputs below are order-of-magnitude
fp32 estimates — the decision logic this library implements depends on
the *memory* budget and relative speeds, not precise GFLOPs, and every
number is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError, at_least, positive
from ..units import GB

__all__ = ["Device", "ODROID_XU4", "RASPBERRY_PI_3", "RASPBERRY_PI_4", "JETSON_NANO", "GENERIC_2GB", "DEVICE_CATALOG"]


@dataclass(frozen=True)
class Device:
    """A training target: memory, compute, storage, availability."""

    name: str
    mem_bytes: int
    cpu_gflops: float
    storage_bytes: int
    gpu_gflops: float = 0.0
    cores: int = 4
    #: long-run fraction of time the payload CPU is free for training
    #: (training is scheduled only when no higher-priority task runs).
    idle_fraction: float = 0.5

    def __post_init__(self) -> None:
        positive("mem_bytes", self.mem_bytes)
        at_least("storage_bytes", self.storage_bytes)
        positive("cpu_gflops", self.cpu_gflops)
        at_least("gpu_gflops", self.gpu_gflops)
        at_least("cores", self.cores, 1)
        if not 0 < self.idle_fraction <= 1:
            raise ConfigError(f"idle_fraction must be in (0, 1], got {self.idle_fraction}")

    @property
    def flops_per_s(self) -> float:
        """Best available raw compute (GPU if present, else CPU)."""
        return max(self.cpu_gflops, self.gpu_gflops) * 1e9

    def with_memory(self, mem_bytes: int) -> "Device":
        """Copy with a different memory budget (what-if analysis)."""
        return replace(self, mem_bytes=mem_bytes)


#: The paper's Waggle payload node.
ODROID_XU4 = Device(
    name="ODROID-XU4",
    mem_bytes=2 * GB,
    cpu_gflops=15.0,
    gpu_gflops=30.0,
    storage_bytes=32 * GB,
    cores=8,
    idle_fraction=0.5,
)

RASPBERRY_PI_3 = Device(
    name="RaspberryPi3B",
    mem_bytes=1 * GB,
    cpu_gflops=3.6,
    storage_bytes=16 * GB,
    cores=4,
    idle_fraction=0.6,
)

RASPBERRY_PI_4 = Device(
    name="RaspberryPi4",
    mem_bytes=4 * GB,
    cpu_gflops=9.7,
    storage_bytes=32 * GB,
    cores=4,
    idle_fraction=0.6,
)

JETSON_NANO = Device(
    name="JetsonNano",
    mem_bytes=4 * GB,
    cpu_gflops=15.0,
    gpu_gflops=235.0,
    storage_bytes=64 * GB,
    cores=4,
    idle_fraction=0.5,
)

#: Abstract 2 GB device used by the paper's tables (no compute assumed).
GENERIC_2GB = Device(
    name="Generic2GB",
    mem_bytes=2 * GB,
    cpu_gflops=10.0,
    storage_bytes=10 * GB,
    idle_fraction=1.0,
)

DEVICE_CATALOG: dict[str, Device] = {
    d.name: d
    for d in (ODROID_XU4, RASPBERRY_PI_3, RASPBERRY_PI_4, JETSON_NANO, GENERIC_2GB)
}
