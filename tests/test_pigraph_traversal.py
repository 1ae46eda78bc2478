"""Tests for repro.pigraph.traversal."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.graph.datasets import small_dataset
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.traversal import (
    HEURISTICS,
    PAPER_HEURISTICS,
    DegreeHighLowHeuristic,
    DegreeLowHighHeuristic,
    GreedyResidentHeuristic,
    SequentialHeuristic,
    get_heuristic,
)
from repro.similarity.workloads import generate_dense_profiles
from repro.tuples.hash_table import TupleHashTable


@pytest.fixture
def pi_graph():
    pi = PIGraph(5)
    pi.add_edge(0, 1, 3)
    pi.add_edge(1, 2, 1)
    pi.add_edge(2, 3, 2)
    pi.add_edge(3, 0, 1)
    pi.add_edge(0, 4, 5)
    pi.add_edge(4, 2, 1)
    pi.add_edge(2, 2, 4)
    return pi


@pytest.fixture
def dataset_pi():
    return PIGraph.from_digraph(small_dataset(150, 800, seed=21))


@pytest.fixture
def weighted_pi():
    """A PI graph whose tuple weights differ strongly from its degree structure."""
    pi = PIGraph(6)
    pi.add_edge(0, 1, weight=1000)
    pi.add_edge(1, 0, weight=800)
    pi.add_edge(2, 3, weight=5)
    pi.add_edge(3, 4, weight=5)
    pi.add_edge(4, 5, weight=5)
    pi.add_edge(5, 2, weight=5)
    pi.add_edge(0, 2, weight=1)
    pi.add_edge(1, 5, weight=1)
    return pi


ALL_NAMES = sorted(HEURISTICS)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPlanCoversAllEdges:
    def test_every_edge_exactly_once(self, name, pi_graph):
        steps = get_heuristic(name).plan(pi_graph)
        seen = []
        for first, second, edges in steps:
            for edge in edges:
                assert {edge.src, edge.dst} <= {first, second}
                seen.append((edge.src, edge.dst))
        assert sorted(seen) == sorted((e.src, e.dst) for e in pi_graph.edges())

    def test_every_edge_exactly_once_on_dataset(self, name, dataset_pi):
        steps = get_heuristic(name).plan(dataset_pi)
        total_edges = sum(len(edges) for _, _, edges in steps)
        assert total_edges == dataset_pi.num_edges

    def test_weights_preserved(self, name, pi_graph):
        steps = get_heuristic(name).plan(pi_graph)
        total = sum(edge.weight for _, _, edges in steps for edge in edges)
        assert total == pi_graph.total_weight

    def test_weights_preserved_when_they_skew_from_the_degrees(self, name, weighted_pi):
        steps = get_heuristic(name).plan(weighted_pi)
        assert sum(len(edges) for _, _, edges in steps) == weighted_pi.num_edges
        assert (sum(edge.weight for _, _, edges in steps for edge in edges)
                == weighted_pi.total_weight)

    def test_every_tuple_of_an_engine_tuple_table(self, name):
        """The weighted PI graph phase 3 builds from ``H`` is planned whole."""
        assignment = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        table = TupleHashTable(6, assignment)
        table.add_array(np.array([(0, 2), (0, 3), (1, 2), (4, 0), (4, 1), (2, 4)]))
        pi = PIGraph.from_tuple_table(table, 3)
        steps = get_heuristic(name).plan(pi)
        assert (sum(edge.weight for _, _, edges in steps for edge in edges)
                == table.num_tuples)


class TestSequential:
    def test_pivot_order_ascending(self, pi_graph):
        heuristic = SequentialHeuristic()
        assert heuristic.pivot_order(pi_graph) == [0, 1, 2, 3, 4]

    def test_neighbor_order_ascending(self, pi_graph):
        heuristic = SequentialHeuristic()
        assert heuristic.neighbor_order(pi_graph, 0, [4, 1, 3]) == [1, 3, 4]

    def test_first_steps_pivot_zero(self, pi_graph):
        steps = SequentialHeuristic().plan(pi_graph)
        assert steps[0][0] == 0


class TestDegreeBased:
    def test_pivot_order_by_descending_degree(self, pi_graph):
        order = DegreeHighLowHeuristic().pivot_order(pi_graph)
        degrees = pi_graph.degree_array()
        assert all(degrees[order[i]] >= degrees[order[i + 1]] for i in range(len(order) - 1))

    def test_high_low_vs_low_high_neighbor_order(self, pi_graph):
        # partitions 0, 1 and 2 have pairwise distinct PI degrees (3, 2 and 4),
        # so the two variants must visit them in exactly opposite orders
        neighbors = [0, 1, 2]
        high_low = DegreeHighLowHeuristic().neighbor_order(pi_graph, 3, neighbors)
        low_high = DegreeLowHighHeuristic().neighbor_order(pi_graph, 3, neighbors)
        assert high_low == list(reversed(low_high))
        assert high_low == [2, 0, 1]

    def test_same_pivot_order_for_both_variants(self, dataset_pi):
        assert (DegreeHighLowHeuristic().pivot_order(dataset_pi)
                == DegreeLowHighHeuristic().pivot_order(dataset_pi))

    @pytest.mark.parametrize("heuristic", [DegreeLowHighHeuristic,
                                           DegreeHighLowHeuristic])
    def test_a_reused_instance_plans_a_new_graph_by_its_own_degrees(
            self, heuristic):
        """An instance planning graph B after graph A was freed — B often
        lands at A's address — plans B as a fresh instance does; degrees
        memoised by ``id`` planned B by A's degrees."""

        def graph(edges):
            pi = PIGraph(4)
            for src, dst in edges:
                pi.add_edge(src, dst)
            return pi

        def pairs(steps):
            return [(first, second) for first, second, _ in steps]

        reused = heuristic()
        expected = pairs(heuristic().plan(graph([(3, 0), (3, 1), (3, 2), (1, 2)])))
        assert expected[0][0] == 3     # the highest-degree pivot
        for _ in range(20):
            first = graph([(0, 1), (0, 2), (0, 3), (1, 2)])
            reused.plan(first)
            del first
            assert pairs(reused.plan(
                graph([(3, 0), (3, 1), (3, 2), (1, 2)]))) == expected


class TestGreedyResident:
    def test_plan_is_valid(self, dataset_pi):
        steps = GreedyResidentHeuristic().plan(dataset_pi)
        total_edges = sum(len(edges) for _, _, edges in steps)
        assert total_edges == dataset_pi.num_edges

    def test_chains_pivots_when_possible(self, pi_graph):
        steps = GreedyResidentHeuristic().plan(pi_graph)
        pivots = [first for first, _, _ in steps]
        # at least once the pivot changes to the previous step's partner
        chained = any(pivots[i + 1] != pivots[i] and pivots[i + 1] == steps[i][1]
                      for i in range(len(steps) - 1))
        assert chained

    def test_engine_executes_its_plan(self):
        profiles = generate_dense_profiles(150, dim=8, seed=62)
        config = EngineConfig(k=5, num_partitions=4, heuristic="greedy-resident", seed=62)
        with KNNEngine(profiles, config) as engine:
            result = engine.run_iteration()
        assert result.load_unload_operations == result.schedule.load_unload_operations
        assert result.graph.num_vertices == 150

    def test_builds_the_graph_the_sequential_order_builds(self):
        """Traversal order must not change the computed KNN graph."""
        profiles = generate_dense_profiles(150, dim=8, seed=63)
        graphs = []
        for heuristic in ("sequential", "greedy-resident"):
            config = EngineConfig(k=5, num_partitions=4, heuristic=heuristic, seed=63)
            with KNNEngine(profiles, config) as engine:
                graphs.append(engine.run(num_iterations=2).final_graph)
        assert graphs[0].edge_difference(graphs[1]) == 0


class TestRegistry:
    def test_paper_heuristics_registered(self):
        for name in PAPER_HEURISTICS:
            assert name in HEURISTICS

    def test_get_heuristic(self):
        assert isinstance(get_heuristic("sequential"), SequentialHeuristic)

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown traversal heuristic"):
            get_heuristic("random-walk")
