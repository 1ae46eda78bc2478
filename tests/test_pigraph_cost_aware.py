"""Tests for the extension heuristics (greedy-resident, cost-aware)."""

import pytest

from repro.graph.datasets import small_dataset
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import compare_heuristics, count_load_unload_operations
from repro.pigraph.traversal import CostAwareHeuristic, HEURISTICS, get_heuristic
from repro.tuples.hash_table import TupleHashTable

import numpy as np


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


@pytest.fixture
def dataset_pi():
    return PIGraph.from_digraph(small_dataset(300, 1800, seed=61))


class TestCostAware:
    def test_registered(self):
        assert "cost-aware" in HEURISTICS
        assert isinstance(get_heuristic("cost-aware"), CostAwareHeuristic)

    def test_plan_covers_all_edges_and_weights(self, weighted_pi):
        steps = CostAwareHeuristic().plan(weighted_pi)
        total_weight = sum(edge.weight for _, _, edges in steps for edge in edges)
        total_edges = sum(len(edges) for _, _, edges in steps)
        assert total_weight == weighted_pi.total_weight
        assert total_edges == weighted_pi.num_edges

    def test_prioritises_heavy_partitions(self, weighted_pi):
        heuristic = CostAwareHeuristic()
        order = heuristic.pivot_order(weighted_pi)
        # partitions 0 and 1 carry almost all the similarity work and should
        # be scheduled before the light ring 2-3-4-5
        assert set(order[:2]) == {0, 1}

    def test_valid_schedule_on_dataset(self, dataset_pi):
        result = count_load_unload_operations(dataset_pi, "cost-aware")
        assert result.tuples_scheduled == dataset_pi.total_weight
        assert result.loads == result.unloads

    def test_competitive_with_sequential(self, dataset_pi):
        results = compare_heuristics(dataset_pi, ["sequential", "cost-aware"])
        assert (results["cost-aware"].load_unload_operations
                <= results["sequential"].load_unload_operations)

    def test_differs_from_greedy_resident_on_weighted_graph(self, weighted_pi):
        cost_plan = CostAwareHeuristic().plan(weighted_pi)
        greedy_plan = get_heuristic("greedy-resident").plan(weighted_pi)
        # same coverage, potentially different order; both must be complete
        assert (sum(len(e) for _, _, e in cost_plan)
                == sum(len(e) for _, _, e in greedy_plan)
                == weighted_pi.num_edges)

    def test_weighted_pi_from_tuple_table(self):
        """cost-aware consumes the tuple weights the engine's PI graph carries."""
        assignment = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        table = TupleHashTable(6, assignment)
        table.add_array(np.array([(0, 2), (0, 3), (1, 2), (4, 0), (4, 1), (2, 4)]))
        pi = PIGraph.from_tuple_table(table, 3)
        result = count_load_unload_operations(pi, "cost-aware")
        assert result.tuples_scheduled == table.num_tuples


class TestEngineWithExtensions:
    @pytest.mark.parametrize("heuristic", ["greedy-resident", "cost-aware"])
    def test_engine_accepts_extension_heuristics(self, heuristic):
        from repro.core.config import EngineConfig
        from repro.core.engine import KNNEngine
        from repro.similarity.workloads import generate_dense_profiles

        profiles = generate_dense_profiles(150, dim=8, seed=62)
        config = EngineConfig(k=5, num_partitions=4, heuristic=heuristic, seed=62)
        with KNNEngine(profiles, config) as engine:
            result = engine.run_iteration()
        assert result.load_unload_operations == result.schedule.load_unload_operations
        assert result.graph.num_vertices == 150

    def test_extension_matches_paper_heuristic_result_exactly(self):
        """Traversal order must not change the computed KNN graph."""
        from repro.core.config import EngineConfig
        from repro.core.engine import KNNEngine
        from repro.similarity.workloads import generate_dense_profiles

        profiles = generate_dense_profiles(150, dim=8, seed=63)
        graphs = []
        for heuristic in ("sequential", "cost-aware"):
            config = EngineConfig(k=5, num_partitions=4, heuristic=heuristic, seed=63)
            with KNNEngine(profiles, config) as engine:
                graphs.append(engine.run(num_iterations=2).final_graph)
        assert graphs[0].edge_difference(graphs[1]) == 0
