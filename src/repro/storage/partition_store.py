"""The partition files (phase 1 output) as a cost model: charged, not written.

The paper spills every partition ``R_i`` to disk in phase 1 and reads the
whole file back on each phase-4 load.  Nothing here consumes those bytes —
``H``, the score slab and the local rows all come from the in-memory CSR —
so the store keeps each file's *size*, a function of the partition's vertex
and edge counts, and charges the :class:`~repro.storage.disk_model.DiskModel`
and :class:`~repro.storage.io_stats.IOStats` what performing the traffic
would: one sequential write per partition in pid order, one sequential read
of the whole file per load.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.partition.model import PartitionLayout
from repro.storage.disk_model import DiskModel, get_disk_model
from repro.storage.io_stats import IOStats

#: An 8-byte magic and six int64 header fields; then 8 B a vertex id and
#: 16 B an ``(s, v)`` or ``(v, d)`` edge row.
_HEADER_BYTES = 8 + 48


class PartitionStore:
    """Sizes of the current iteration's partition files, and their I/O bill."""

    def __init__(self, disk_model: Union[str, DiskModel] = "ssd",
                 io_stats: Optional[IOStats] = None):
        self._disk = get_disk_model(disk_model)
        self.io_stats = io_stats if io_stats is not None else IOStats()
        self._file_bytes = self._resident_bytes = np.zeros(0, dtype=np.int64)

    def replace_all(self, graph: CSRDiGraph, layout: PartitionLayout,
                    profile_bytes_per_user: int = 0) -> None:
        """Phase 1: size ``layout``'s partitions of ``graph`` and charge
        writing them.  A partition holds its vertices' in- and out-edges, so
        its edge count is the sum of their degrees — no partition is built."""
        vertices = np.diff(layout.bounds)
        edges = np.bincount(      # sums of integers far below 2**53: exact
            layout.assignment, weights=graph.degree_array(),
            minlength=len(vertices)).astype(np.int64)
        self._file_bytes = _HEADER_BYTES + 8 * vertices + 16 * edges
        self._resident_bytes = 16 * edges + (8 + profile_bytes_per_user) * vertices
        for num_bytes in self._file_bytes.tolist():
            self.io_stats.record_write(
                num_bytes, self._disk.write_cost(num_bytes, sequential=True))

    def read_partition(self, pid: int) -> int:
        """Charge one load of partition ``pid`` — a sequential read of its
        whole file — and return the bytes it occupies once resident: edge
        lists, vertex ids and the profile rows of its users."""
        num_bytes = int(self._file_bytes[pid])
        self.io_stats.record_read(
            num_bytes, self._disk.read_cost(num_bytes, sequential=True))
        return int(self._resident_bytes[pid])
