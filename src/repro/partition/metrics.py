"""Partition-quality metrics.

These quantify how well a partitioning serves the paper's phase-4 access
pattern: the headline metric is the paper's objective
``Σ_i (N_in_i + N_out_i)``; edge cut and balance are reported as standard
complementary measures.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.partition.model import Partition


def locality_cost(partitions: Sequence[Partition]) -> int:
    """The paper's objective value: ``Σ_i (N_in_i + N_out_i)``."""
    return sum(p.locality_cost for p in partitions)


def edge_cut(graph: CSRDiGraph, assignment: np.ndarray) -> int:
    """Number of edges whose endpoints lie in different partitions."""
    assignment = np.asarray(assignment, dtype=np.int64)
    edges = graph.edges_array()
    if len(edges) == 0:
        return 0
    return int((assignment[edges[:, 0]] != assignment[edges[:, 1]]).sum())


def partition_balance(partitions: Sequence[Partition]) -> float:
    """Max partition size divided by the ideal size (1.0 = perfectly balanced)."""
    sizes = [p.num_vertices for p in partitions]
    total = sum(sizes)
    if total == 0 or not sizes:
        return 1.0
    ideal = total / len(sizes)
    return max(sizes) / ideal


def partition_report(graph: CSRDiGraph, partitions: Sequence[Partition],
                     assignment: np.ndarray) -> Dict[str, float]:
    """Summary dictionary of the standard partition-quality metrics."""
    return {
        "num_partitions": float(len(partitions)),
        "locality_cost": float(locality_cost(partitions)),
        "edge_cut": float(edge_cut(graph, assignment)),
        "edge_cut_fraction": (edge_cut(graph, assignment) / graph.num_edges
                              if graph.num_edges else 0.0),
        "balance": partition_balance(partitions),
        "max_partition_vertices": float(max((p.num_vertices for p in partitions), default=0)),
        "min_partition_vertices": float(min((p.num_vertices for p in partitions), default=0)),
    }
