"""Tests for repro.tuples.hash_table."""

import numpy as np
import pytest

from repro.tuples.hash_table import TupleHashTable


@pytest.fixture
def table():
    # 10 vertices split into 2 partitions: 0-4 -> 0, 5-9 -> 1
    assignment = np.array([0] * 5 + [1] * 5, dtype=np.int64)
    return TupleHashTable(10, assignment)


class TestAdd:
    def test_add_new_tuple(self, table):
        assert table.add(0, 5) is True
        assert (0, 5) in table
        assert table.num_tuples == 1

    def test_duplicate_rejected(self, table):
        table.add(0, 5)
        assert table.add(0, 5) is False
        assert table.num_tuples == 1

    def test_self_pair_rejected(self, table):
        assert table.add(3, 3) is False
        assert table.num_tuples == 0

    def test_direction_matters(self, table):
        table.add(0, 5)
        assert table.add(5, 0) is True
        assert table.num_tuples == 2

    def test_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.add(0, 99)


class TestAddArray:
    def test_bulk_insert_dedupes(self, table):
        pairs = np.array([[0, 1], [0, 1], [1, 6], [6, 6], [2, 3]])
        added = table.add_array(pairs)
        assert added == 3
        assert table.num_tuples == 3

    def test_bulk_insert_respects_existing(self, table):
        table.add(0, 1)
        added = table.add_array(np.array([[0, 1], [1, 2]]))
        assert added == 1

    def test_empty_array(self, table):
        assert table.add_array(np.empty((0, 2), dtype=np.int64)) == 0

    def test_bad_shape(self, table):
        with pytest.raises(ValueError):
            table.add_array(np.zeros((3, 3), dtype=np.int64))

    def test_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.add_array(np.array([[0, 50]]))

    def test_interleaved_scalar_and_bulk_dedup(self):
        """Regression: bulk inserts must dedup against scalar adds and back.

        The original ``add_array`` scanned a Python set per key; the
        array-native rewrite must preserve exact dedup semantics when scalar
        and bulk insertion interleave in any order.
        """
        assignment = np.arange(30) % 4
        mixed = TupleHashTable(30, assignment)
        scalar = TupleHashTable(30, assignment)
        rng = np.random.default_rng(7)
        batches = [rng.integers(0, 30, size=(80, 2)) for _ in range(4)]
        for batch in batches:
            # scalar-insert the first half, bulk-insert the whole batch, then
            # scalar-insert the second half again (all duplicates)
            for source, destination in batch[:40]:
                mixed.add(int(source), int(destination))
            mixed.add_array(batch)
            for source, destination in batch[40:]:
                mixed.add(int(source), int(destination))
            for source, destination in batch:
                scalar.add(int(source), int(destination))
        assert mixed.num_tuples == scalar.num_tuples
        assert set(mixed.iter_tuples()) == set(scalar.iter_tuples())
        assert mixed.bucket_sizes() == scalar.bucket_sizes()
        assert sum(mixed.bucket_sizes().values()) == mixed.num_tuples

    def test_bulk_then_bulk_dedup_counts(self):
        assignment = np.zeros(10, dtype=np.int64)
        table = TupleHashTable(10, assignment)
        first = table.add_array(np.array([[0, 1], [1, 2], [2, 3]]))
        second = table.add_array(np.array([[1, 2], [2, 3], [3, 4]]))
        assert (first, second) == (3, 1)
        assert table.num_tuples == 4

    def test_matches_scalar_path(self):
        assignment = np.arange(20) % 3
        scalar_table = TupleHashTable(20, assignment)
        array_table = TupleHashTable(20, assignment)
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 20, size=(200, 2))
        for source, destination in pairs:
            scalar_table.add(int(source), int(destination))
        array_table.add_array(pairs)
        assert scalar_table.num_tuples == array_table.num_tuples
        assert set(map(tuple, scalar_table.all_tuples().tolist())) == set(
            map(tuple, array_table.all_tuples().tolist()))


class TestBuckets:
    def test_bucketing_by_partition_pair(self, table):
        table.add(0, 1)   # (0, 0)
        table.add(0, 6)   # (0, 1)
        table.add(7, 2)   # (1, 0)
        table.add(8, 9)   # (1, 1)
        assert set(table.partition_pairs()) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert table.bucket_sizes()[(0, 1)] == 1

    def test_tuples_for(self, table):
        table.add(0, 6)
        table.add(1, 7)
        tuples = table.tuples_for(0, 1)
        assert tuples.shape == (2, 2)
        assert set(map(tuple, tuples.tolist())) == {(0, 6), (1, 7)}

    def test_tuples_for_empty_pair(self, table):
        assert table.tuples_for(1, 0).shape == (0, 2)

    def test_all_tuples_roundtrip(self, table):
        expected = {(0, 5), (2, 3), (9, 1)}
        for s, d in expected:
            table.add(s, d)
        assert set(map(tuple, table.all_tuples().tolist())) == expected
        assert set(table.iter_tuples()) == expected

    def test_bucket_sizes_sum_to_total(self, table):
        rng = np.random.default_rng(1)
        table.add_array(rng.integers(0, 10, size=(100, 2)))
        assert sum(table.bucket_sizes().values()) == table.num_tuples

    def test_memory_estimate_grows(self, table):
        before = table.memory_estimate_bytes()
        table.add(0, 1)
        assert table.memory_estimate_bytes() > before

    def test_memory_estimate_is_the_bytes_held(self, table):
        table.add_array(np.array([[0, 1], [0, 4], [5, 2]]))
        # an int64 key and an int32 multiplicity per tuple
        held = table.keys.nbytes + table.multiplicities.nbytes
        assert table.memory_estimate_bytes() == held == 3 * (8 + 4)
        # the bucket index is one position per key, and building it counts
        # the tuples of each of the 2 x 2 partition pairs
        table.bucket_index()
        indexed = table.memory_estimate_bytes()
        assert indexed == held + table.keys.nbytes + 4 * 8
        table.add(7, 3)        # a pending scalar insert: key + count
        assert table.memory_estimate_bytes() == indexed + 12


class TestConstruction:
    def test_assignment_length_check(self):
        with pytest.raises(ValueError):
            TupleHashTable(5, np.zeros(3, dtype=np.int64))
