"""Tests for repro.storage.io_stats."""

import numpy as np

from repro.storage.io_stats import IOStats


class TestIOStats:
    def test_record_read_write(self):
        stats = IOStats()
        stats.record_read(100, 0.5)
        stats.record_write(200, 0.25)
        assert stats.read_ops == 1
        assert stats.write_ops == 1
        assert stats.bytes_read == 100
        assert stats.bytes_written == 200
        assert stats.total_bytes == 300
        assert stats.simulated_io_seconds == 0.75

    def test_partition_counters(self):
        stats = IOStats()
        stats.record_partition_load()
        stats.record_partition_load()
        stats.record_partition_unload()
        assert stats.partition_loads == 2
        assert stats.partition_unloads == 1
        assert stats.load_unload_operations == 3

    def test_merge(self):
        a, b = IOStats(), IOStats()
        a.record_read(10)
        b.record_write(20)
        b.record_partition_load()
        a.merge(b)
        assert a.bytes_read == 10
        assert a.bytes_written == 20
        assert a.partition_loads == 1

    def test_reset(self):
        stats = IOStats()
        stats.record_read(10, 1.0)
        stats.record_partition_load()
        stats.reset()
        assert stats.as_dict() == IOStats().as_dict()

    def test_as_dict_and_format(self):
        stats = IOStats()
        stats.record_read(10)
        data = stats.as_dict()
        assert data["read_ops"] == 1
        assert "bytes_read" in stats.format_table()


class TestBatchedRecords:
    """``record_reads`` / ``record_writes`` charge what a loop of single
    records charges, bit for bit: their seconds are added one at a time,
    never by a pairwise sum."""

    def test_reads_add_in_order_where_a_pairwise_sum_differs(self):
        seconds = [1e16, 1.0, -1e16, 1.0]
        assert (seconds[0] + seconds[1]) + (seconds[2] + seconds[3]) == 0.0
        looped, batched = IOStats(), IOStats()
        for num_bytes, cost in zip([4096, 8, 100, 7], seconds):
            looped.record_read(num_bytes, cost)
        batched.record_reads([4096, 8, 100, 7], seconds)
        assert looped.simulated_io_seconds == 1.0
        assert batched == looped

    def test_writes_add_in_order_where_a_pairwise_sum_differs(self):
        looped, batched = IOStats(), IOStats()
        looped.simulated_io_seconds = batched.simulated_io_seconds = 1e16
        for _ in range(4):
            looped.record_write(16, 1.0)
        batched.record_writes(4, 16, 1.0)
        assert 1e16 + ((1.0 + 1.0) + (1.0 + 1.0)) != 1e16
        assert looped.simulated_io_seconds == 1e16
        assert batched == looped

    def test_many_records_equal_the_loop(self):
        rng = np.random.default_rng(7)
        seconds = rng.normal(size=1000) * 10.0 ** rng.integers(-8, 8, size=1000)
        sizes = rng.integers(0, 1 << 20, size=1000)
        looped, batched = IOStats(), IOStats()
        for num_bytes, cost in zip(sizes.tolist(), seconds.tolist()):
            looped.record_read(num_bytes, cost)
        batched.record_reads(sizes, seconds)
        assert float(np.sum(seconds)) != looped.simulated_io_seconds
        assert batched == looped
        batched.record_reads([], [])
        batched.record_writes(0, 16, 1.0)
        assert batched == looped
