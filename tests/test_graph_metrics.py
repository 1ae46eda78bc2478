"""Tests for repro.graph.metrics."""

import numpy as np
import pytest

from repro.graph.digraph import CSRDiGraph
from repro.graph.generators import erdos_renyi_graph, powerlaw_fixed_size_graph
from repro.graph.metrics import (
    average_clustering_coefficient,
    degree_gini,
    degree_statistics,
    local_clustering_coefficient,
    reciprocity,
    self_loop_count,
)


@pytest.fixture
def triangle_graph():
    """0<->1, 1<->2, 0<->2 : a fully reciprocal triangle."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    return CSRDiGraph.from_edges(3, edges)


class TestDegreeStatistics:
    def test_means_match_edge_count(self, medium_graph):
        stats = degree_statistics(medium_graph)
        assert stats["out_degree_mean"] == pytest.approx(
            medium_graph.num_edges / medium_graph.num_vertices)
        assert stats["in_degree_mean"] == pytest.approx(stats["out_degree_mean"])
        assert stats["total_degree_max"] >= stats["out_degree_max"]

    def test_isolated_count(self):
        graph = CSRDiGraph.from_edges(5, [(0, 1)])
        assert degree_statistics(graph)["num_isolated"] == 3

    def test_empty_graph(self):
        stats = degree_statistics(CSRDiGraph.from_edges(0, []))
        assert stats["out_degree_mean"] == 0.0


class TestDegreeGini:
    def test_uniform_degrees_have_low_gini(self):
        # ring graph: every vertex has out-degree 1 and in-degree 1
        n = 50
        ring = CSRDiGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert degree_gini(ring) == pytest.approx(0.0, abs=1e-9)

    def test_powerlaw_more_skewed_than_uniform_random(self):
        power = powerlaw_fixed_size_graph(400, 3000, exponent=2.0, seed=1)
        uniform = erdos_renyi_graph(400, num_edges=3000, seed=1)
        assert degree_gini(power) > degree_gini(uniform)

    def test_invalid_kind(self, medium_graph):
        with pytest.raises(ValueError):
            degree_gini(medium_graph, kind="diagonal")

    def test_empty_graph(self):
        assert degree_gini(CSRDiGraph.from_edges(3, [])) == 0.0


class TestReciprocityAndLoops:
    def test_fully_reciprocal(self, triangle_graph):
        assert reciprocity(triangle_graph) == pytest.approx(1.0)

    def test_no_reciprocity(self):
        graph = CSRDiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert reciprocity(graph) == 0.0

    def test_empty(self):
        assert reciprocity(CSRDiGraph.from_edges(2, [])) == 0.0

    def test_self_loops_counted(self):
        graph = CSRDiGraph.from_edges(3, [(0, 0), (1, 2)])
        assert self_loop_count(graph) == 1

    def test_generators_produce_no_self_loops(self, medium_graph):
        assert self_loop_count(medium_graph) == 0


class TestClustering:
    def test_triangle_is_fully_clustered(self, triangle_graph):
        assert local_clustering_coefficient(triangle_graph, 0) == pytest.approx(1.0)
        assert average_clustering_coefficient(triangle_graph) == pytest.approx(1.0)

    def test_star_has_zero_clustering_at_centre(self):
        star = CSRDiGraph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert local_clustering_coefficient(star, 0) == 0.0

    def test_degree_below_two_is_zero(self):
        graph = CSRDiGraph.from_edges(3, [(0, 1)])
        assert local_clustering_coefficient(graph, 2) == 0.0

    def test_sampled_estimate_close_to_exact(self, medium_graph):
        exact = average_clustering_coefficient(medium_graph)
        sampled = average_clustering_coefficient(medium_graph, sample_size=150, seed=1)
        assert abs(exact - sampled) < 0.1
