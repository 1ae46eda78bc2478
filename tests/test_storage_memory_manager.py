"""Tests for repro.storage.memory_manager."""

import pytest

from repro.partition.model import build_partitions, partition_layout
from repro.partition.partitioners import ContiguousPartitioner
from repro.storage.memory_manager import MemoryBudget, PartitionCache
from repro.storage.partition_store import PartitionStore


@pytest.fixture
def stored_partitions(medium_graph):
    """A store that sized six partitions, and the partitions it sized."""
    assignment = ContiguousPartitioner().assign(medium_graph, 6)
    partitions = build_partitions(medium_graph, assignment, 6)
    store = PartitionStore(disk_model="instant")
    store.replace_all(medium_graph, partition_layout(assignment, 6))
    store.io_stats.reset()
    return store, partitions


class TestMemoryBudget:
    def test_allocate_release(self):
        budget = MemoryBudget(1000)
        budget.allocate(400)
        assert budget.available_bytes == 600
        budget.release(100)
        assert budget.available_bytes == 700

    def test_over_allocation_raises(self):
        budget = MemoryBudget(100)
        with pytest.raises(MemoryError):
            budget.allocate(101)

    def test_peak_tracking(self):
        budget = MemoryBudget(1000)
        budget.allocate(700)
        budget.release(700)
        budget.allocate(100)
        assert budget.peak_bytes == 700

    def test_release_never_negative(self):
        budget = MemoryBudget(100)
        budget.release(50)
        assert budget.available_bytes == 100

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_negative_allocation_rejected(self):
        budget = MemoryBudget(10)
        with pytest.raises(ValueError):
            budget.allocate(-1)


class TestPartitionCache:
    def test_acquire_loads_once(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        cache.acquire(0)
        cache.acquire(0)
        assert cache.io_stats.partition_loads == 1
        assert cache.resident_ids == [0]

    def test_eviction_at_capacity(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        cache.acquire(0)
        cache.acquire(1)
        cache.acquire(2)
        assert cache.resident_ids == [1, 2]
        assert cache.io_stats.partition_loads == 3
        assert cache.io_stats.partition_unloads == 1

    def test_lru_order(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        cache.acquire(0)
        cache.acquire(1)
        cache.acquire(0)          # 1 becomes LRU
        cache.acquire(2)
        assert cache.resident_ids == [0, 2]

    def test_acquire_pair(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        assert cache.acquire_pair(3, 4) is False      # two misses
        assert set(cache.resident_ids) == {3, 4}
        assert cache.acquire_pair(4, 3) is True       # a hit: both resident
        assert cache.acquire_pair(4, 5) is False      # one miss is a miss
        assert cache.io_stats.read_ops == cache.io_stats.partition_loads == 3

    def test_acquire_pair_same_partition(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        assert cache.acquire_pair(1, 1) is False
        assert cache.acquire_pair(1, 1) is True
        assert cache.io_stats.partition_loads == 1

    def test_acquire_pair_keeps_both_resident(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        cache.acquire_pair(0, 1)
        cache.acquire_pair(1, 2)
        assert set(cache.resident_ids) == {1, 2}

    def test_flush_unloads_everything(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=3)
        cache.acquire(0)
        cache.acquire(1)
        cache.flush()
        assert cache.resident_ids == []
        assert cache.io_stats.partition_unloads == 2

    def test_flush_of_an_empty_cache_unloads_nothing(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=3)
        cache.acquire(0)
        cache.flush()
        cache.flush()             # no-op
        assert cache.io_stats.partition_unloads == 1

    def test_budget_respected(self, stored_partitions):
        store, partitions = stored_partitions
        size = max(p.estimated_bytes() for p in partitions)
        budget = MemoryBudget(size * 2 + 16)
        cache = PartitionCache(store, max_resident=2, memory_budget=budget)
        cache.acquire_pair(0, 1)
        assert budget.available_bytes == budget.capacity_bytes - sum(
            p.estimated_bytes() for p in partitions[:2])
        cache.acquire(2)        # evicts 0, the least recently used
        assert budget.available_bytes == budget.capacity_bytes - sum(
            p.estimated_bytes() for p in partitions[1:3])
        assert budget.peak_bytes == max(
            sum(p.estimated_bytes() for p in partitions[i:i + 2]) for i in (0, 1))
        cache.flush()
        assert budget.available_bytes == budget.capacity_bytes

    def test_budget_too_small_raises(self, stored_partitions):
        store, partitions = stored_partitions
        budget = MemoryBudget(10)     # far below one partition
        cache = PartitionCache(store, max_resident=2, memory_budget=budget)
        with pytest.raises(MemoryError):
            cache.acquire(0)

    def test_single_slot_pair_rejected(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=1)
        with pytest.raises(RuntimeError):
            cache.acquire_pair(0, 1)

    def test_load_unload_operations_are_counted_in_io_stats(self, stored_partitions):
        store, _ = stored_partitions
        cache = PartitionCache(store, max_resident=2)
        cache.acquire(0)
        cache.acquire(1)
        cache.acquire(2)
        assert cache.io_stats.load_unload_operations == 4
        assert store.io_stats is cache.io_stats

    def test_without_store_or_budget_loads_are_only_counted(self):
        """The bare walk ``simulate_schedule`` counts with."""
        cache = PartitionCache(max_resident=2)
        cache.acquire_pair(7, 9)
        cache.acquire_pair(9, 11)
        assert cache.resident_ids == [9, 11]
        assert (cache.io_stats.partition_loads,
                cache.io_stats.partition_unloads) == (3, 1)
        assert cache.io_stats.read_ops == cache.io_stats.bytes_read == 0
