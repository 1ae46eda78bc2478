"""Memory budget accounting and the two-slot partition cache.

The paper's phase 4 keeps *at most two partitions resident* at any time and
the experiments count partition load/unload operations under that policy.
:class:`PartitionCache` is that policy — the one implementation of the
pre-touch / pivot-first / evict-LRU residency walk (the slot count is
configurable so the memory-budget extension experiment can vary it).  It
holds partition ids and their resident sizes, never partition data: a load
is a charge against the :class:`~repro.storage.partition_store.PartitionStore`
and the :class:`MemoryBudget`, and a count in the shared
:class:`~repro.storage.io_stats.IOStats`.  With neither store nor budget it
is the bare walk :func:`~repro.pigraph.scheduler.simulate_schedule` counts
Table 1 with, so the simulated and the executed counts cannot drift apart.

:class:`MemoryBudget` is the byte-level account the cache draws from: the
engine sizes partitions (edges plus profile rows) and refuses to exceed the
configured budget, which is how "a memory-constrained commodity PC" is made
explicit and reproducible in software.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.storage.io_stats import IOStats
from repro.storage.partition_store import PartitionStore
from repro.utils.validation import check_positive, check_positive_int


class MemoryBudget:
    """A simple byte-denominated memory account."""

    def __init__(self, capacity_bytes: float):
        check_positive(capacity_bytes, "capacity_bytes")
        self._capacity = float(capacity_bytes)
        self._used = 0.0
        self._peak = 0.0

    @property
    def capacity_bytes(self) -> float:
        return self._capacity

    @property
    def used_bytes(self) -> float:
        return self._used

    @property
    def peak_bytes(self) -> float:
        return self._peak

    @property
    def available_bytes(self) -> float:
        return self._capacity - self._used

    def can_allocate(self, num_bytes: float) -> bool:
        return self._used + num_bytes <= self._capacity

    def allocate(self, num_bytes: float) -> None:
        """Reserve ``num_bytes``; raises ``MemoryError`` when over budget."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        if not self.can_allocate(num_bytes):
            raise MemoryError(
                f"allocation of {num_bytes:.0f} bytes exceeds the memory budget "
                f"({self._used:.0f}/{self._capacity:.0f} bytes in use)"
            )
        self._used += num_bytes
        self._peak = max(self._peak, self._used)

    def release(self, num_bytes: float) -> None:
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        self._used = max(0.0, self._used - num_bytes)

    def record_transient(self, num_bytes: float) -> None:
        """Account a short-lived allocation against the budget.

        Enforces the cap (raising ``MemoryError`` like :meth:`allocate`) and
        advances the peak water-mark, but does not leave the bytes in
        ``used``.  Shard-parallel execution charges each worker's per-step
        resident slices this way: the budget is a *per concurrent holder*
        cap — every step's slices must individually fit — not a cumulative
        account across a wave.
        """
        self.allocate(num_bytes)
        self.release(num_bytes)

    def reset(self) -> None:
        self._used = 0.0
        self._peak = 0.0


class PartitionCache:
    """LRU residency of partition ids with a bounded number of slots.

    ``max_resident=2`` reproduces the paper's policy of holding at most two
    partitions in memory while a PI-graph edge is processed.  ``store``
    prices a load (one file read, the resident bytes) and ``memory_budget``
    holds those bytes while the partition stays; without them loads are free
    and only counted.
    """

    def __init__(self, store: Optional[PartitionStore] = None,
                 max_resident: int = 2,
                 memory_budget: Optional[MemoryBudget] = None,
                 io_stats: Optional[IOStats] = None):
        check_positive_int(max_resident, "max_resident")
        self._max_resident = max_resident
        self._store = store
        self._budget = memory_budget
        if io_stats is None:
            io_stats = store.io_stats if store is not None else IOStats()
        self.io_stats = io_stats
        # pid → resident bytes, least recently used first
        self._resident: "OrderedDict[int, int]" = OrderedDict()

    # -- cache behaviour -----------------------------------------------------

    @property
    def max_resident(self) -> int:
        return self._max_resident

    @property
    def resident_ids(self) -> List[int]:
        """Partition ids currently resident, least-recently-used first."""
        return list(self._resident)

    def is_resident(self, pid: int) -> bool:
        return pid in self._resident

    def acquire(self, pid: int) -> bool:
        """Make partition ``pid`` resident, loading it (and evicting the
        least recently used) if necessary; ``True`` on a cache hit."""
        if pid in self._resident:
            self._resident.move_to_end(pid)
            return True
        while len(self._resident) >= self._max_resident:
            self._unload(next(iter(self._resident)))
        size = self._store.read_partition(pid) if self._store is not None else 0
        if self._budget is not None:
            self._budget.allocate(size)
        self._resident[pid] = size
        self.io_stats.record_partition_load()
        return False

    def acquire_pair(self, pid_a: int, pid_b: int) -> bool:
        """Make partitions ``pid_a`` and ``pid_b`` simultaneously resident;
        ``True`` when both already were.

        This is exactly the access pattern of one PI-graph edge.  When the
        two ids are equal a single partition is loaded.
        """
        if pid_a == pid_b:
            return self.acquire(pid_a)
        if self._max_resident < 2:
            raise RuntimeError("acquire_pair requires at least two cache slots")
        # Touch whichever of the two is already resident *before* any miss
        # is loaded, so a load can never evict the step's own partner (and
        # immediately reload it: one spurious load+unload at exactly the
        # slot boundary).
        for pid in (pid_a, pid_b):
            if pid in self._resident:
                self._resident.move_to_end(pid)
        # The pivot before the partner: the partner then becomes the
        # eviction candidate on the next step while the pivot stays
        # resident, and a pivot switch to the previous partner is a hit.
        pivot_hit = self.acquire(pid_a)
        return self.acquire(pid_b) and pivot_hit

    def release(self, pid: int) -> None:
        """Explicitly unload a resident partition (no-op when absent)."""
        if pid in self._resident:
            self._unload(pid)

    def flush(self) -> None:
        """Unload every resident partition."""
        for pid in list(self._resident):
            self._unload(pid)

    def _unload(self, pid: int) -> None:
        size = self._resident.pop(pid)
        if self._budget is not None:
            self._budget.release(size)
        self.io_stats.record_partition_unload()

    # -- statistics ------------------------------------------------------------

    @property
    def load_unload_operations(self) -> int:
        return self.io_stats.load_unload_operations
