"""A deterministic block-device model (HDD / SSD substitution).

The paper's future-work evaluation compares execution on HDD vs SSD.  Real
rotating disks are not available (or controllable) in this reproduction
environment, so all partition I/O is charged against a simple analytical
device model: every operation pays a per-operation access latency (seek +
rotational delay for HDDs, controller latency for SSDs) plus a transfer
time proportional to the number of bytes moved.  Random accesses pay the
access latency on every call; sequential accesses amortise it.

The model produces *simulated seconds*; benchmarks report those alongside
operation counts, which keeps the experiment deterministic while preserving
the qualitative HDD ≪ SSD ordering the paper expects to observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class DiskModel:
    """Analytical latency/bandwidth model for one storage device."""

    name: str
    access_latency_s: float          # cost of initiating a random access
    sequential_bandwidth_bps: float  # bytes per second for sequential transfers
    random_bandwidth_bps: float      # bytes per second for random transfers
    write_penalty: float = 1.0       # multiplier applied to write transfers

    def __post_init__(self):
        check_non_negative(self.access_latency_s, "access_latency_s")
        if self.sequential_bandwidth_bps <= 0 or self.random_bandwidth_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.write_penalty <= 0:
            raise ValueError("write_penalty must be positive")

    def read_cost(self, num_bytes: int, sequential: bool = True) -> float:
        """Simulated seconds to read ``num_bytes``."""
        check_non_negative(num_bytes, "num_bytes")
        bandwidth = self.sequential_bandwidth_bps if sequential else self.random_bandwidth_bps
        latency = 0.0 if sequential else self.access_latency_s
        return latency + num_bytes / bandwidth

    def write_cost(self, num_bytes: int, sequential: bool = True) -> float:
        """Simulated seconds to write ``num_bytes``."""
        check_non_negative(num_bytes, "num_bytes")
        bandwidth = self.sequential_bandwidth_bps if sequential else self.random_bandwidth_bps
        latency = 0.0 if sequential else self.access_latency_s
        return latency + (num_bytes * self.write_penalty) / bandwidth

    def mapped_read_cost(self, num_bytes: int, sequential: bool = True) -> float:
        """Simulated seconds to fault ``num_bytes`` in through a memory map.

        Mapped reads are demand-paged: the device still moves every touched
        byte, but in whole pages, so the charge is the ordinary read cost of
        the byte count rounded up to the page size.  A zero-byte mapping
        faults nothing and costs nothing.
        """
        check_non_negative(num_bytes, "num_bytes")
        if num_bytes == 0:
            return 0.0
        pages = -(-int(num_bytes) // PAGE_SIZE_BYTES)
        return self.read_cost(pages * PAGE_SIZE_BYTES, sequential=sequential)

    def mapped_write_cost(self, num_bytes: int, sequential: bool = True) -> float:
        """Simulated seconds to write ``num_bytes`` through a memory map.

        The write-side mirror of :meth:`mapped_read_cost`: dirty pages are
        flushed whole, so the charge is the ordinary write cost of the byte
        count rounded up to the page size.  In-place row updates and journal
        appends — the phase-5 incremental paths — are charged through this,
        keeping their accounting page-granular like the mapped reads.
        """
        check_non_negative(num_bytes, "num_bytes")
        if num_bytes == 0:
            return 0.0
        pages = -(-int(num_bytes) // PAGE_SIZE_BYTES)
        return self.write_cost(pages * PAGE_SIZE_BYTES, sequential=sequential)


#: Page granularity used by :meth:`DiskModel.mapped_read_cost`.
PAGE_SIZE_BYTES = 4096


#: Presets roughly matching a 7200-rpm laptop HDD, a SATA SSD, and an ideal device.
DISK_PRESETS: Dict[str, DiskModel] = {
    "hdd": DiskModel(
        name="hdd",
        access_latency_s=8e-3,                 # ~8 ms seek + rotational delay
        sequential_bandwidth_bps=120e6,        # 120 MB/s sequential
        random_bandwidth_bps=1.5e6,            # ~1.5 MB/s effective random
        write_penalty=1.1,
    ),
    "ssd": DiskModel(
        name="ssd",
        access_latency_s=8e-5,                 # ~80 µs
        sequential_bandwidth_bps=500e6,        # 500 MB/s sequential
        random_bandwidth_bps=250e6,            # 250 MB/s random
        write_penalty=1.3,
    ),
    "instant": DiskModel(
        name="instant",
        access_latency_s=0.0,
        sequential_bandwidth_bps=float("inf"),
        random_bandwidth_bps=float("inf"),
        write_penalty=1.0,
    ),
}


def get_disk_model(name_or_model) -> DiskModel:
    """Normalise a preset name or a :class:`DiskModel` instance to a model."""
    if isinstance(name_or_model, DiskModel):
        return name_or_model
    try:
        return DISK_PRESETS[name_or_model]
    except KeyError:
        known = ", ".join(sorted(DISK_PRESETS))
        raise KeyError(
            f"unknown disk model {name_or_model!r}; known presets: {known}"
        ) from None
