"""Tests for repro.partition.model."""

import numpy as np
import pytest

from repro.partition.model import Partition, build_partitions
from repro.partition.partitioners import ContiguousPartitioner


class TestBuildPartitions:
    def test_vertices_are_partitioned_exactly_once(self, medium_graph):
        assignment = ContiguousPartitioner().assign(medium_graph, 4)
        partitions = build_partitions(medium_graph, assignment, 4)
        all_vertices = np.concatenate([p.vertices for p in partitions])
        assert sorted(all_vertices.tolist()) == list(range(medium_graph.num_vertices))

    def test_every_edge_appears_as_in_and_out(self, medium_graph):
        assignment = ContiguousPartitioner().assign(medium_graph, 4)
        partitions = build_partitions(medium_graph, assignment, 4)
        total_out = sum(p.num_out_edges for p in partitions)
        total_in = sum(p.num_in_edges for p in partitions)
        assert total_out == medium_graph.num_edges
        assert total_in == medium_graph.num_edges

    def test_edges_sorted_by_bridge_vertex(self, medium_graph):
        assignment = ContiguousPartitioner().assign(medium_graph, 4)
        for partition in build_partitions(medium_graph, assignment, 4):
            if partition.num_out_edges:
                assert np.all(np.diff(partition.out_edges[:, 0]) >= 0)
            if partition.num_in_edges:
                assert np.all(np.diff(partition.in_edges[:, 1]) >= 0)

    def test_out_edges_belong_to_partition_vertices(self, medium_graph):
        assignment = ContiguousPartitioner().assign(medium_graph, 4)
        for partition in build_partitions(medium_graph, assignment, 4):
            vertex_set = set(partition.vertices.tolist())
            assert all(int(v) in vertex_set for v in partition.out_edges[:, 0])
            assert all(int(v) in vertex_set for v in partition.in_edges[:, 1])

    def test_unique_external_counts(self, small_csr):
        # single partition: all sources/destinations are internal but still counted
        assignment = np.zeros(small_csr.num_vertices, dtype=np.int64)
        [partition] = build_partitions(small_csr, assignment, 1)
        assert partition.num_unique_in_sources == len(
            np.unique(small_csr.edges_array()[:, 0]))
        assert partition.num_unique_out_destinations == len(
            np.unique(small_csr.edges_array()[:, 1]))

    def test_bad_assignment_length(self, small_csr):
        with pytest.raises(ValueError):
            build_partitions(small_csr, np.zeros(3, dtype=np.int64), 1)

    def test_assignment_out_of_range(self, small_csr):
        bad = np.full(small_csr.num_vertices, 5, dtype=np.int64)
        with pytest.raises(ValueError):
            build_partitions(small_csr, bad, 2)


class TestPartitionObject:
    def test_locality_cost(self):
        partition = Partition(
            pid=0,
            vertices=np.array([0, 1]),
            in_edges=np.empty((0, 2), dtype=np.int64),
            out_edges=np.empty((0, 2), dtype=np.int64),
            num_unique_in_sources=3,
            num_unique_out_destinations=4,
        )
        assert partition.locality_cost == 7

    def test_estimated_bytes_scales_with_profiles(self, small_csr):
        assignment = ContiguousPartitioner().assign(small_csr, 1)
        [partition] = build_partitions(small_csr, assignment, 1)
        assert partition.estimated_bytes(100) > partition.estimated_bytes(0)

