"""Tests for repro.graph.digraph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import CSRDiGraph, DiGraph, degree_histogram


class TestDiGraphBasics:
    def test_empty_graph(self):
        graph = DiGraph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_add_edge_and_query(self, small_digraph):
        assert small_digraph.num_vertices == 5
        assert small_digraph.num_edges == 7
        assert small_digraph.has_edge(0, 1)
        assert not small_digraph.has_edge(1, 0)

    def test_add_duplicate_edge_is_noop(self, small_digraph):
        assert small_digraph.add_edge(0, 1) is False
        assert small_digraph.num_edges == 7

    def test_remove_edge(self, small_digraph):
        assert small_digraph.remove_edge(0, 1) is True
        assert small_digraph.num_edges == 6
        assert small_digraph.remove_edge(0, 1) is False

    def test_degrees(self, small_digraph):
        assert small_digraph.out_degree(0) == 2
        assert small_digraph.in_degree(0) == 2
        assert small_digraph.degree(0) == 4

    def test_neighbors(self, small_digraph):
        assert small_digraph.out_neighbors(0) == {1, 2}
        assert small_digraph.in_neighbors(2) == {0, 1}

    def test_vertex_out_of_range(self, small_digraph):
        with pytest.raises(IndexError):
            small_digraph.add_edge(0, 10)
        with pytest.raises(IndexError):
            small_digraph.out_neighbors(-1)

    def test_add_vertex(self, small_digraph):
        new_id = small_digraph.add_vertex()
        assert new_id == 5
        assert small_digraph.out_degree(new_id) == 0

    def test_copy_is_independent(self, small_digraph):
        clone = small_digraph.copy()
        clone.add_edge(4, 0)
        assert not small_digraph.has_edge(4, 0)
        assert small_digraph == small_digraph.copy()

    def test_set_out_neighbors_replaces(self, small_digraph):
        small_digraph.set_out_neighbors(0, [3, 4])
        assert small_digraph.out_neighbors(0) == {3, 4}
        assert 0 in small_digraph.in_neighbors(3)
        assert 0 not in small_digraph.in_neighbors(1)

    def test_set_out_neighbors_drops_self_loop(self, small_digraph):
        small_digraph.set_out_neighbors(0, [0, 1])
        assert small_digraph.out_neighbors(0) == {1}

    def test_set_out_neighbors_edge_count(self, small_digraph):
        before = small_digraph.num_edges
        small_digraph.set_out_neighbors(0, [1])  # was {1, 2}
        assert small_digraph.num_edges == before - 1

    def test_edges_sorted(self, small_digraph):
        edges = list(small_digraph.edges())
        assert edges == sorted(edges)

    def test_degree_arrays(self, small_digraph):
        out = small_digraph.out_degree_array()
        assert out.sum() == small_digraph.num_edges
        assert small_digraph.in_degree_array().sum() == small_digraph.num_edges

    def test_from_edges_roundtrip(self, small_digraph):
        rebuilt = DiGraph.from_edges(5, small_digraph.edges())
        assert rebuilt == small_digraph


class TestCSRDiGraph:
    def test_from_digraph_matches(self, small_digraph):
        csr = small_digraph.to_csr()
        assert csr.num_vertices == small_digraph.num_vertices
        assert csr.num_edges == small_digraph.num_edges
        for v in range(5):
            assert set(csr.out_neighbors(v)) == small_digraph.out_neighbors(v)
            assert set(csr.in_neighbors(v)) == small_digraph.in_neighbors(v)

    def test_from_edges_dedupes(self):
        csr = CSRDiGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        assert csr.num_edges == 2

    def test_from_edges_empty(self):
        csr = CSRDiGraph.from_edges(4, [])
        assert csr.num_edges == 0
        assert csr.num_vertices == 4

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValueError):
            CSRDiGraph.from_edges(2, [(0, 5)])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=80))))
    def test_from_edges_matches_the_unique_lexsort_implementation(self, case):
        """Pinned against the implementation this replaced (``np.unique`` on
        rows, two lexsorts, two ``np.add.at``): same four arrays, duplicates,
        self loops and isolated vertices included."""
        n, edges = case
        csr = CSRDiGraph.from_edges(n, edges)
        arr = np.unique(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=0)
        src, dst = arr[:, 0], arr[:, 1]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        rorder = np.lexsort((src, dst))
        rindptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(rindptr, dst[rorder] + 1, 1)
        for got, want in ((csr.indptr, np.cumsum(indptr)), (csr.indices, dst),
                          (csr.rindptr, np.cumsum(rindptr)), (csr.rindices, src[rorder])):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_neighbors_sorted(self, small_csr):
        for v in range(small_csr.num_vertices):
            row = small_csr.out_neighbors(v)
            assert np.all(np.diff(row) >= 0)

    def test_edges_array_shape(self, small_csr):
        arr = small_csr.edges_array()
        assert arr.shape == (small_csr.num_edges, 2)

    def test_has_edge(self, small_csr):
        assert small_csr.has_edge(0, 2)
        assert not small_csr.has_edge(2, 1)

    def test_degree_arrays_consistent(self, small_csr):
        assert small_csr.out_degree_array().sum() == small_csr.num_edges
        assert small_csr.in_degree_array().sum() == small_csr.num_edges
        assert np.array_equal(
            small_csr.degree_array(),
            small_csr.out_degree_array() + small_csr.in_degree_array(),
        )

    def test_roundtrip_to_digraph(self, small_digraph):
        assert small_digraph.to_csr().to_digraph() == small_digraph

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRDiGraph(np.array([0, 5]), np.array([1]), np.array([0, 1]), np.array([0]))


class TestDegreeHistogram:
    def test_total_histogram_sums_to_vertices(self, small_csr):
        hist = degree_histogram(small_csr, "total")
        assert sum(hist.values()) == small_csr.num_vertices

    def test_kinds(self, small_csr):
        assert degree_histogram(small_csr, "in") != {}
        assert degree_histogram(small_csr, "out") != {}

    def test_invalid_kind(self, small_csr):
        with pytest.raises(ValueError):
            degree_histogram(small_csr, "sideways")
