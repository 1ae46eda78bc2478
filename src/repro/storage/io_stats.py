"""I/O accounting shared by the storage layer and the benchmarks.

The paper's preliminary evaluation reports *partition load/unload operation
counts* (Table 1); its future work adds bytes moved and disk throughput.
``IOStats`` tracks all of these plus the simulated device time charged by
the :class:`~repro.storage.disk_model.DiskModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass
class IOStats:
    """Mutable counters for one storage component (or one whole run).

    ``simulated_io_ps`` is the simulated device time in whole picoseconds:
    each charge's seconds are rounded once, and integers add exactly, so the
    same charges give the same total in any order or batching.  A batch of
    reads sums an int64 array, which holds ≈ 9.2·10⁶ s a call; the total
    itself is a Python int.
    """

    partition_loads: int = 0
    partition_unloads: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    simulated_io_ps: int = 0

    @property
    def load_unload_operations(self) -> int:
        """Total load + unload operations — the quantity Table 1 reports."""
        return self.partition_loads + self.partition_unloads

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def simulated_io_seconds(self) -> float:
        return self.simulated_io_ps / 1e12

    def record_read(self, num_bytes: int, simulated_seconds: float = 0.0) -> None:
        self.read_ops += 1
        self.bytes_read += int(num_bytes)
        self.simulated_io_ps += round(simulated_seconds * 1e12)

    def record_write(self, num_bytes: int, simulated_seconds: float = 0.0) -> None:
        self.write_ops += 1
        self.bytes_written += int(num_bytes)
        self.simulated_io_ps += round(simulated_seconds * 1e12)

    def record_reads(self, num_bytes: Sequence[int],
                     simulated_seconds: Sequence[float]) -> None:
        """Reads of ``num_bytes[i]`` costing ``simulated_seconds[i]``,
        charged exactly as one :meth:`record_read` call each."""
        self.read_ops += len(num_bytes)
        self.bytes_read += int(sum(num_bytes))
        self.simulated_io_ps += int(np.rint(np.multiply(
            simulated_seconds, 1e12)).astype(np.int64).sum())

    def record_writes(self, count: int, num_bytes: int,
                      simulated_seconds: float = 0.0) -> None:
        """``count`` writes of ``num_bytes`` each, charged exactly as that
        many :meth:`record_write` calls."""
        self.write_ops += count
        self.bytes_written += count * int(num_bytes)
        self.simulated_io_ps += count * round(simulated_seconds * 1e12)

    def record_partition_load(self) -> None:
        self.partition_loads += 1

    def record_partition_unload(self) -> None:
        self.partition_unloads += 1

    def merge(self, other: "IOStats") -> None:
        """Accumulate ``other`` into this instance (in place)."""
        self.partition_loads += other.partition_loads
        self.partition_unloads += other.partition_unloads
        self.read_ops += other.read_ops
        self.write_ops += other.write_ops
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.simulated_io_ps += other.simulated_io_ps

    def reset(self) -> None:
        self.partition_loads = 0
        self.partition_unloads = 0
        self.read_ops = 0
        self.write_ops = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.simulated_io_ps = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "partition_loads": self.partition_loads,
            "partition_unloads": self.partition_unloads,
            "load_unload_operations": self.load_unload_operations,
            "read_ops": self.read_ops,
            "write_ops": self.write_ops,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "simulated_io_seconds": self.simulated_io_seconds,
        }

    def format_table(self) -> str:
        lines = [f"{key:>24}: {value}" for key, value in self.as_dict().items()]
        return "\n".join(lines)
