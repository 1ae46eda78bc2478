"""Tests for repro.storage.partition_store: what a write and a read are
charged, per disk model.  That the charged sizes are the sizes of the
partitions ``build_partitions`` materialises is the cost-oracle wall's
(``test_partition_cost_model.py``)."""

import pytest

from repro.partition.model import build_partitions, partition_layout
from repro.partition.partitioners import ContiguousPartitioner
from repro.storage.disk_model import get_disk_model
from repro.storage.partition_store import PartitionStore

NUM_PARTITIONS = 4


@pytest.fixture
def layout(medium_graph):
    assignment = ContiguousPartitioner().assign(medium_graph, NUM_PARTITIONS)
    return partition_layout(assignment, NUM_PARTITIONS)


@pytest.fixture
def file_bytes(medium_graph, layout):
    return [56 + 8 * p.num_vertices + 16 * (p.num_in_edges + p.num_out_edges)
            for p in build_partitions(medium_graph, layout.assignment,
                                      NUM_PARTITIONS)]


class TestIOAccounting:
    @pytest.mark.parametrize("disk", ["hdd", "ssd"])
    def test_one_sequential_write_per_partition_in_pid_order(
            self, medium_graph, layout, file_bytes, disk):
        store = PartitionStore(disk_model=disk)
        store.replace_all(medium_graph, layout)
        expected_seconds = 0.0
        for num_bytes in file_bytes:
            expected_seconds += get_disk_model(disk).write_cost(
                num_bytes, sequential=True)
        assert store.io_stats.write_ops == NUM_PARTITIONS
        assert store.io_stats.bytes_written == sum(file_bytes)
        assert store.io_stats.simulated_io_seconds == expected_seconds > 0
        assert store.io_stats.read_ops == 0

    @pytest.mark.parametrize("disk", ["hdd", "ssd"])
    def test_repeated_reads_charge_the_whole_file_each_time(
            self, medium_graph, layout, file_bytes, disk):
        store = PartitionStore(disk_model=disk)
        store.replace_all(medium_graph, layout)
        store.io_stats.reset()
        expected_seconds = 0.0
        for _ in range(3):
            for pid, num_bytes in enumerate(file_bytes):
                store.read_partition(pid)
                expected_seconds += get_disk_model(disk).read_cost(
                    num_bytes, sequential=True)
        assert store.io_stats.read_ops == 3 * NUM_PARTITIONS
        assert store.io_stats.bytes_read == 3 * sum(file_bytes)
        assert store.io_stats.simulated_io_seconds == expected_seconds > 0
        assert store.io_stats.write_ops == 0

    def test_instant_disk_has_zero_simulated_time(self, medium_graph, layout):
        store = PartitionStore(disk_model="instant")
        store.replace_all(medium_graph, layout)
        store.read_partition(0)
        assert store.io_stats.bytes_written > 0
        assert store.io_stats.bytes_read > 0
        assert store.io_stats.simulated_io_seconds == 0.0

    def test_replace_all_replaces_the_sizes(self, medium_graph, layout,
                                            file_bytes):
        """Each iteration's files overwrite the last one's: a read is charged
        at the current layout's size."""
        store = PartitionStore(disk_model="instant")
        store.replace_all(medium_graph, partition_layout(
            [0] * medium_graph.num_vertices, 1))
        store.replace_all(medium_graph, layout)
        store.io_stats.reset()
        store.read_partition(NUM_PARTITIONS - 1)
        assert store.io_stats.bytes_read == file_bytes[-1]

    def test_unknown_partition_is_an_error(self, medium_graph, layout):
        store = PartitionStore()
        with pytest.raises(IndexError):
            store.read_partition(0)
        store.replace_all(medium_graph, layout)
        with pytest.raises(IndexError):
            store.read_partition(NUM_PARTITIONS)
