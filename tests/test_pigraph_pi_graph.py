"""Tests for repro.pigraph.pi_graph."""

import numpy as np
import pytest

from repro.pigraph.pi_graph import PIEdge, PIGraph
from repro.tuples.hash_table import TupleHashTable


class TestConstruction:
    def test_add_edge_and_weight_accumulation(self):
        pi = PIGraph(3)
        pi.add_edge(0, 1, weight=2)
        pi.add_edge(0, 1, weight=3)
        assert pi.weight(0, 1) == 5
        assert pi.num_edges == 1
        assert pi.total_weight == 5

    def test_out_of_range(self):
        pi = PIGraph(2)
        with pytest.raises(IndexError):
            pi.add_edge(0, 5)

    def test_invalid_weight(self):
        pi = PIGraph(2)
        with pytest.raises(ValueError):
            pi.add_edge(0, 1, weight=0)

    def test_from_tuple_table(self):
        assignment = np.array([0, 0, 1, 1], dtype=np.int64)
        table = TupleHashTable(4, assignment)
        table.add(0, 2)
        table.add(1, 3)
        table.add(2, 0)
        table.add(0, 1)
        pi = PIGraph.from_tuple_table(table, 2)
        assert pi.weight(0, 1) == 2
        assert pi.weight(1, 0) == 1
        assert pi.weight(0, 0) == 1
        assert pi.total_weight == table.num_tuples

    def test_from_digraph(self, small_csr):
        pi = PIGraph.from_digraph(small_csr)
        assert pi.num_partitions == small_csr.num_vertices
        assert pi.num_edges == small_csr.num_edges
        assert pi.total_weight == small_csr.num_edges


class TestQueries:
    @pytest.fixture
    def pi(self):
        graph = PIGraph(4)
        graph.add_edge(0, 1, weight=5)
        graph.add_edge(1, 2, weight=1)
        graph.add_edge(2, 0, weight=2)
        graph.add_edge(3, 3, weight=7)
        return graph

    def test_edges_sorted(self, pi):
        edges = pi.edges()
        assert [(e.src, e.dst) for e in edges] == [(0, 1), (1, 2), (2, 0), (3, 3)]

    def test_neighbors_excludes_self(self, pi):
        assert pi.neighbors(0) == {1, 2}
        assert pi.neighbors(3) == set()

    def test_degree_counts_self_edge_once(self, pi):
        assert pi.degree(3) == 1
        assert pi.degree(0) == 2

    def test_degree_array_matches_degree(self, pi):
        degrees = pi.degree_array()
        for p in range(4):
            assert degrees[p] == pi.degree(p)

    def test_active_partitions(self):
        pi = PIGraph(5)
        pi.add_edge(1, 3)
        assert pi.active_partitions() == [1, 3]

    def test_adjacency_symmetric(self, pi):
        adjacency = pi.adjacency()
        assert adjacency[0][1] == 5
        assert adjacency[1][0] == 5
        assert adjacency[3][3] == 7

    def test_adjacency_merges_both_directions_of_a_pair(self):
        # residency is symmetric: tuples 0->1 and 1->0 both need the pair
        pi = PIGraph(3)
        pi.add_edge(0, 1, weight=5)
        pi.add_edge(1, 0, weight=4)
        adjacency = pi.adjacency()
        assert adjacency[0] == {1: 9}
        assert adjacency[1] == {0: 9}
        assert adjacency[2] == {}

    def test_has_edge(self, pi):
        assert pi.has_edge(0, 1)
        assert not pi.has_edge(1, 0)


class TestPIEdge:
    def test_endpoints(self):
        edge = PIEdge(1, 2, 9)
        assert edge.endpoints() == (1, 2)
        assert edge.weight == 9
