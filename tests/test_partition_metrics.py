"""Tests for repro.partition.metrics."""

import numpy as np
import pytest

from repro.partition.metrics import (
    edge_cut,
    locality_cost,
    partition_balance,
    partition_report,
)
from repro.partition.model import build_partitions
from repro.partition.partitioners import ContiguousPartitioner


@pytest.fixture
def partitioned(medium_graph):
    assignment = ContiguousPartitioner().assign(medium_graph, 4)
    partitions = build_partitions(medium_graph, assignment, 4)
    return medium_graph, partitions, assignment


class TestLocalityCost:
    def test_sums_per_partition_costs(self, partitioned):
        _, partitions, _ = partitioned
        assert locality_cost(partitions) == sum(p.locality_cost for p in partitions)

    def test_single_partition_lower_bound(self, medium_graph):
        assignment = np.zeros(medium_graph.num_vertices, dtype=np.int64)
        single = build_partitions(medium_graph, assignment, 1)
        split = build_partitions(
            medium_graph, ContiguousPartitioner().assign(medium_graph, 8), 8)
        assert locality_cost(single) <= locality_cost(split)


class TestEdgeCut:
    def test_zero_for_single_partition(self, medium_graph):
        assignment = np.zeros(medium_graph.num_vertices, dtype=np.int64)
        assert edge_cut(medium_graph, assignment) == 0

    def test_bounded_by_edges(self, partitioned):
        graph, _, assignment = partitioned
        cut = edge_cut(graph, assignment)
        assert 0 <= cut <= graph.num_edges


class TestBalance:
    def test_perfect_balance(self, partitioned):
        _, partitions, _ = partitioned
        assert partition_balance(partitions) == pytest.approx(1.0)

    def test_empty_list(self):
        assert partition_balance([]) == 1.0


class TestReport:
    def test_report_keys_and_format(self, partitioned):
        graph, partitions, assignment = partitioned
        report = partition_report(graph, partitions, assignment)
        assert report["num_partitions"] == 4
        assert 0.0 <= report["edge_cut_fraction"] <= 1.0
