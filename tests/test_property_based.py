"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import CSRDiGraph, DiGraph
from repro.graph.knn_graph import KNNGraph
from repro.partition.model import build_partitions
from repro.partition.partitioners import ContiguousPartitioner, HashPartitioner
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import count_load_unload_operations
from repro.similarity.measures import cosine_similarity, jaccard_similarity
from repro.tuples.generator import brute_force_two_hop_pairs, generate_candidate_tuples
from repro.tuples.hash_table import TupleHashTable

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- strategies --------------------------------------------------------------

@st.composite
def edge_lists(draw, max_vertices=30, max_edges=120):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=num_edges, max_size=num_edges))
    edges = [(s, d) for s, d in edges if s != d]
    return n, edges


@st.composite
def scored_candidates(draw):
    n = draw(st.integers(min_value=3, max_value=25))
    k = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=0, max_value=60))
    entries = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)),
        min_size=count, max_size=count))
    return n, k, entries


# -- graph invariants ---------------------------------------------------------

class TestGraphProperties:
    @SETTINGS
    @given(edge_lists())
    def test_csr_preserves_edge_set(self, data):
        n, edges = data
        csr = CSRDiGraph.from_edges(n, edges)
        assert set(map(tuple, csr.edges_array().tolist())) == set(edges)

    @SETTINGS
    @given(edge_lists())
    def test_in_and_out_degree_sums_equal(self, data):
        n, edges = data
        csr = CSRDiGraph.from_edges(n, edges)
        assert csr.out_degree_array().sum() == csr.in_degree_array().sum() == csr.num_edges

    @SETTINGS
    @given(edge_lists())
    def test_digraph_csr_roundtrip(self, data):
        n, edges = data
        graph = DiGraph.from_edges(n, edges)
        assert graph.to_csr().to_digraph() == graph

    @SETTINGS
    @given(edge_lists())
    def test_reverse_adjacency_consistent(self, data):
        n, edges = data
        csr = CSRDiGraph.from_edges(n, edges)
        for v in range(n):
            for u in csr.in_neighbors(v):
                assert csr.has_edge(int(u), v)


class TestKNNGraphProperties:
    @SETTINGS
    @given(scored_candidates())
    def test_out_degree_never_exceeds_k(self, data):
        n, k, entries = data
        graph = KNNGraph(n, k)
        for vertex, neighbor, score in entries:
            graph.add_candidate(vertex, neighbor, score)
        for v in range(n):
            assert len(graph.neighbors(v)) <= k
            assert v not in graph.neighbors(v)

    @SETTINGS
    @given(scored_candidates())
    def test_kept_neighbors_are_the_best_offered(self, data):
        n, k, entries = data
        graph = KNNGraph(n, k)
        best = {}
        for vertex, neighbor, score in entries:
            graph.add_candidate(vertex, neighbor, score)
            if vertex != neighbor:
                key = (vertex, neighbor)
                best[key] = max(best.get(key, float("-inf")), score)
        for v in range(n):
            offered = sorted((s for (src, _), s in best.items() if src == v), reverse=True)
            kept = sorted(graph.neighbor_scores(v).values(), reverse=True)
            assert len(kept) == min(k, len(offered))
            # the kept multiset must equal the top-k of the offered multiset
            assert kept == pytest.approx(offered[:len(kept)])

    @SETTINGS
    @given(scored_candidates())
    def test_edge_difference_is_a_metric_on_identity(self, data):
        n, k, entries = data
        graph = KNNGraph(n, k)
        for vertex, neighbor, score in entries:
            graph.add_candidate(vertex, neighbor, score)
        assert graph.edge_difference(graph.copy()) == 0


class TestSimilarityProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 50), max_size=20), st.lists(st.integers(0, 50), max_size=20))
    def test_jaccard_symmetric_and_bounded(self, a, b):
        s = jaccard_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(jaccard_similarity(b, a))

    @SETTINGS
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=15))
    def test_jaccard_identity(self, items):
        assert jaccard_similarity(items, items) == pytest.approx(1.0)

    @SETTINGS
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
           st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8))
    def test_cosine_symmetric_and_bounded(self, a, b):
        size = min(len(a), len(b))
        a, b = np.asarray(a[:size]), np.asarray(b[:size])
        s = cosine_similarity(a, b)
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9
        assert s == pytest.approx(cosine_similarity(b, a))


class TestPartitionProperties:
    @SETTINGS
    @given(edge_lists(max_vertices=40), st.integers(min_value=1, max_value=6))
    def test_partitions_cover_vertices_and_edges(self, data, m):
        n, edges = data
        m = min(m, n)
        csr = CSRDiGraph.from_edges(n, edges)
        assignment = ContiguousPartitioner().assign(csr, m)
        partitions = build_partitions(csr, assignment, m)
        covered = sorted(int(v) for p in partitions for v in p.vertices)
        assert covered == list(range(n))
        assert sum(p.num_out_edges for p in partitions) == csr.num_edges
        assert sum(p.num_in_edges for p in partitions) == csr.num_edges


class TestTupleProperties:
    @SETTINGS
    @given(edge_lists(max_vertices=25, max_edges=80), st.integers(min_value=1, max_value=4))
    def test_candidate_tuples_equal_two_hop_plus_direct(self, data, m):
        n, edges = data
        m = min(m, n)
        csr = CSRDiGraph.from_edges(n, edges)
        assignment = HashPartitioner().assign(csr, m)
        partitions = build_partitions(csr, assignment, m)
        table = generate_candidate_tuples(csr, partitions, assignment)
        stored = set(map(tuple, table.all_tuples().tolist()))
        expected = set(map(tuple, brute_force_two_hop_pairs(csr).tolist()))
        expected |= {(int(s), int(d)) for s, d in csr.edges_array() if s != d}
        assert stored == expected

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=100))
    def test_hash_table_never_stores_duplicates_or_self_pairs(self, pairs):
        table = TupleHashTable(15, np.zeros(15, dtype=np.int64))
        for source, destination in pairs:
            table.add(source, destination)
        stored = list(table.iter_tuples())
        assert len(stored) == len(set(stored))
        assert all(s != d for s, d in stored)
        assert set(stored) == {(s, d) for s, d in pairs if s != d}


class TestSchedulerProperties:
    @SETTINGS
    @given(edge_lists(max_vertices=20, max_edges=60))
    def test_every_heuristic_schedules_every_tuple(self, data):
        n, edges = data
        csr = CSRDiGraph.from_edges(n, edges)
        pi = PIGraph.from_digraph(csr)
        if pi.num_edges == 0:
            return
        for heuristic in ("sequential", "degree-high-low", "degree-low-high",
                          "greedy-resident"):
            result = count_load_unload_operations(pi, heuristic)
            assert result.tuples_scheduled == pi.total_weight
            assert result.loads == result.unloads
            assert result.loads >= 1
