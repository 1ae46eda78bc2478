"""Tests for repro.storage.partition_store."""

import numpy as np
import pytest

from repro.partition.model import build_partitions
from repro.partition.partitioners import ContiguousPartitioner
from repro.storage.partition_store import PartitionStore


@pytest.fixture
def partitions(medium_graph):
    assignment = ContiguousPartitioner().assign(medium_graph, 4)
    return build_partitions(medium_graph, assignment, 4)


class TestWriteRead:
    def test_roundtrip(self, partitions, tmp_path):
        store = PartitionStore(tmp_path, disk_model="instant")
        store.write_partitions(partitions)
        for original in partitions:
            loaded = store.read_partition(original.pid)
            assert np.array_equal(loaded.vertices, original.vertices)
            assert np.array_equal(loaded.in_edges, original.in_edges)
            assert np.array_equal(loaded.out_edges, original.out_edges)
            assert loaded.num_unique_in_sources == original.num_unique_in_sources
            assert loaded.num_unique_out_destinations == original.num_unique_out_destinations

    def test_stored_ids(self, partitions, tmp_path):
        store = PartitionStore(tmp_path)
        store.write_partitions(partitions)
        assert store.stored_partition_ids() == [0, 1, 2, 3]

    def test_missing_partition(self, tmp_path):
        store = PartitionStore(tmp_path)
        with pytest.raises(FileNotFoundError,
                           match="no stored partition with id 7 under"):
            store.read_partition(7)

    def test_partition_removed_after_a_read_is_reported_the_same_way(
            self, partitions, tmp_path):
        """One ``open`` decides: no ``exists()`` probe a removal can race."""
        store = PartitionStore(tmp_path)
        store.write_partition(partitions[0])
        store.read_partition(0)
        store.delete_partition(0)
        with pytest.raises(FileNotFoundError,
                           match="no stored partition with id 0 under") as caught:
            store.read_partition(0)
        assert caught.value.__cause__ is None  # not Python's own errno text

    def test_wrong_pid_in_file(self, partitions, tmp_path):
        store = PartitionStore(tmp_path)
        store.write_partition(partitions[1])
        store.partition_path(1).rename(store.partition_path(3))
        with pytest.raises(ValueError, match="stores partition 1, expected 3"):
            store.read_partition(3)

    def test_bad_magic(self, tmp_path):
        store = PartitionStore(tmp_path)
        store.partition_path(0).write_bytes(b"garbage!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            store.read_partition(0)

    def test_delete_and_clear(self, partitions, tmp_path):
        store = PartitionStore(tmp_path)
        store.write_partitions(partitions)
        assert store.delete_partition(0) is True
        assert store.delete_partition(0) is False
        store.clear()
        assert store.stored_partition_ids() == []

    def test_partition_size(self, partitions, tmp_path):
        store = PartitionStore(tmp_path)
        assert store.partition_size_bytes(0) == 0
        store.write_partition(partitions[0])
        assert store.partition_size_bytes(0) > 0


class TestIOAccounting:
    def test_write_and_read_recorded(self, partitions, tmp_path):
        store = PartitionStore(tmp_path, disk_model="hdd")
        store.write_partition(partitions[0])
        assert store.io_stats.write_ops == 1
        assert store.io_stats.bytes_written > 0
        store.read_partition(0)
        assert store.io_stats.read_ops == 1
        assert store.io_stats.bytes_read > 0
        assert store.io_stats.simulated_io_seconds > 0

    def test_repeated_reads_charge_the_whole_file_each_time(self, partitions,
                                                            tmp_path):
        store = PartitionStore(tmp_path, disk_model="ssd")
        store.write_partitions(partitions)
        store.io_stats.reset()
        expected_seconds = 0.0
        for _ in range(3):
            for partition in partitions:
                store.read_partition(partition.pid)
                expected_seconds += store.disk_model.read_cost(
                    store.partition_size_bytes(partition.pid), sequential=True)
        assert store.io_stats.read_ops == 3 * len(partitions)
        assert store.io_stats.bytes_read == 3 * sum(
            store.partition_size_bytes(p.pid) for p in partitions)
        assert store.io_stats.simulated_io_seconds == expected_seconds

    def test_instant_disk_has_zero_simulated_time(self, partitions, tmp_path):
        store = PartitionStore(tmp_path, disk_model="instant")
        store.write_partition(partitions[0])
        store.read_partition(0)
        assert store.io_stats.simulated_io_seconds == 0.0
