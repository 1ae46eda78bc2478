"""On-disk storage of partitions (phase 1 output).

Each partition ``R_i`` is written as one compact binary file containing the
partition's vertex array and its in-/out-edge arrays, written with NumPy so
that loading a partition is a single sequential read followed by zero-copy
``frombuffer`` slicing.  The store charges every read/write against the
configured :class:`~repro.storage.disk_model.DiskModel` and records the
operation in an :class:`~repro.storage.io_stats.IOStats` instance.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.partition.model import Partition
from repro.storage.disk_model import DiskModel, get_disk_model
from repro.storage.io_stats import IOStats
from repro.utils.logging import get_logger

PathLike = Union[str, os.PathLike]

_MAGIC = b"RPPT0001"
_logger = get_logger("storage.partition_store")


class PartitionStore:
    """Reads and writes partition files under a base directory."""

    def __init__(self, base_dir: PathLike, disk_model: Union[str, DiskModel] = "ssd",
                 io_stats: Optional[IOStats] = None):
        self._base_dir = Path(base_dir)
        self._base_dir.mkdir(parents=True, exist_ok=True)
        self._disk = get_disk_model(disk_model)
        self.io_stats = io_stats if io_stats is not None else IOStats()
        #: Optional :class:`repro.testing.faults.FaultPlan` consulted around
        #: partition writes (engine-wired).  Partition files are derived
        #: state — phase 1 rewrites them every iteration — so an injected
        #: write failure here models a transient disk error during an
        #: iteration, not durable-state corruption.
        self.fault_plan = None
        # pid → path string of the partition file, built once per pid: phase 4
        # reads each partition many times an iteration
        self._read_paths: Dict[int, str] = {}

    # -- paths -------------------------------------------------------------

    @property
    def base_dir(self) -> Path:
        return self._base_dir

    @property
    def disk_model(self) -> DiskModel:
        return self._disk

    def partition_path(self, pid: int) -> Path:
        return self._base_dir / f"partition_{pid:05d}.bin"

    def stored_partition_ids(self) -> List[int]:
        """Partition ids currently present on disk, ascending."""
        ids = []
        for path in self._base_dir.glob("partition_*.bin"):
            stem = path.stem.split("_", 1)[1]
            ids.append(int(stem))
        return sorted(ids)

    # -- write / read -------------------------------------------------------

    def write_partition(self, partition: Partition) -> Path:
        """Serialise one partition to its file (sequential write)."""
        path = self.partition_path(partition.pid)
        vertices = partition.vertices.astype(np.int64)
        in_edges = partition.in_edges.astype(np.int64)
        out_edges = partition.out_edges.astype(np.int64)
        header = np.asarray([
            partition.pid,
            len(vertices),
            len(in_edges),
            len(out_edges),
            partition.num_unique_in_sources,
            partition.num_unique_out_destinations,
        ], dtype=np.int64)
        if self.fault_plan is not None:
            self.fault_plan.file_op("write", path)
        with path.open("wb") as handle:
            handle.write(_MAGIC)
            handle.write(header.tobytes())
            handle.write(vertices.tobytes())
            handle.write(in_edges.tobytes())
            handle.write(out_edges.tobytes())
        if self.fault_plan is not None:
            self.fault_plan.after_file_op("write", path)
        num_bytes = (len(_MAGIC) + header.nbytes + vertices.nbytes
                     + in_edges.nbytes + out_edges.nbytes)
        self.io_stats.record_write(num_bytes, self._disk.write_cost(num_bytes, sequential=True))
        return path

    def write_partitions(self, partitions: Sequence[Partition]) -> None:
        for partition in partitions:
            self.write_partition(partition)

    def replace_all(self, partitions: Sequence[Partition]) -> None:
        """Make ``partitions`` the store's exact contents, overwriting in place.

        Phase 1 calls this once per iteration: existing files are truncated
        and rewritten rather than unlinked first, and only stale ids (from a
        run with more partitions) are deleted — no per-iteration directory
        churn.
        """
        keep = set()
        for partition in partitions:
            self.write_partition(partition)
            keep.add(partition.pid)
        for pid in self.stored_partition_ids():
            if pid not in keep:
                self.delete_partition(pid)

    def read_partition(self, pid: int) -> Partition:
        """Load one partition from disk (sequential read of the whole file).

        The returned arrays are zero-copy read-only views over the file's
        byte buffer — one allocation for the whole partition instead of one
        per array.  Partitions are immutable once written, so every consumer
        treats them as read-only.
        """
        path = self._read_paths.get(pid)
        if path is None:
            path = self._read_paths[pid] = os.fspath(self.partition_path(pid))
        try:
            # unbuffered: one read call takes the whole file into one bytes
            with open(path, "rb", buffering=0) as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no stored partition with id {pid} under {self._base_dir}") from None
        if raw[:len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path} is not a repro partition file (bad magic)")
        offset = len(_MAGIC)
        header = np.frombuffer(raw, dtype=np.int64, count=6, offset=offset)
        offset += 6 * 8
        stored_pid, n_vertices, n_in, n_out, n_in_src, n_out_dst = (int(x) for x in header)
        if stored_pid != pid:
            raise ValueError(f"{path} stores partition {stored_pid}, expected {pid}")
        vertices = np.frombuffer(raw, dtype=np.int64, count=n_vertices, offset=offset)
        offset += n_vertices * 8
        in_edges = np.frombuffer(raw, dtype=np.int64, count=n_in * 2, offset=offset)
        in_edges = in_edges.reshape(n_in, 2)
        offset += n_in * 16
        out_edges = np.frombuffer(raw, dtype=np.int64, count=n_out * 2, offset=offset)
        out_edges = out_edges.reshape(n_out, 2)
        self.io_stats.record_read(len(raw), self._disk.read_cost(len(raw), sequential=True))
        return Partition(
            pid=pid,
            vertices=vertices,
            in_edges=in_edges,
            out_edges=out_edges,
            num_unique_in_sources=n_in_src,
            num_unique_out_destinations=n_out_dst,
        )

    def partition_size_bytes(self, pid: int) -> int:
        """On-disk size of a stored partition (0 when absent)."""
        path = self.partition_path(pid)
        return path.stat().st_size if path.exists() else 0

    def delete_partition(self, pid: int) -> bool:
        """Remove a stored partition file; returns ``True`` if it existed."""
        path = self.partition_path(pid)
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> None:
        """Remove all stored partition files."""
        for pid in self.stored_partition_ids():
            self.delete_partition(pid)
