"""Structural graph metrics.

Used to characterise the synthetic dataset stand-ins (degree skew,
reciprocity, clustering) and to sanity-check that they fall in the same
structural family as the SNAP graphs the paper evaluates on — voting and
collaboration networks are highly skewed and clustered, P2P overlays are
flatter.  All metrics operate on :class:`~repro.graph.digraph.CSRDiGraph`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.utils.rng import SeedLike, make_rng


def degree_statistics(graph: CSRDiGraph) -> Dict[str, float]:
    """Mean / max / skew summary of in-, out- and total degrees."""
    out_deg = graph.out_degree_array()
    in_deg = graph.in_degree_array()
    total = out_deg + in_deg
    def stats(prefix: str, degrees: np.ndarray) -> Dict[str, float]:
        if len(degrees) == 0:
            return {f"{prefix}_mean": 0.0, f"{prefix}_max": 0.0, f"{prefix}_std": 0.0}
        return {
            f"{prefix}_mean": float(degrees.mean()),
            f"{prefix}_max": float(degrees.max()),
            f"{prefix}_std": float(degrees.std()),
        }
    result: Dict[str, float] = {}
    result.update(stats("out_degree", out_deg))
    result.update(stats("in_degree", in_deg))
    result.update(stats("total_degree", total))
    result["num_isolated"] = float(int((total == 0).sum()))
    return result


def degree_gini(graph: CSRDiGraph, kind: str = "total") -> float:
    """Gini coefficient of the degree distribution (0 = uniform, →1 = hub-dominated)."""
    if kind == "in":
        degrees = graph.in_degree_array()
    elif kind == "out":
        degrees = graph.out_degree_array()
    elif kind == "total":
        degrees = graph.degree_array()
    else:
        raise ValueError(f"kind must be 'in', 'out' or 'total', got {kind!r}")
    degrees = np.sort(degrees.astype(np.float64))
    n = len(degrees)
    total = degrees.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * degrees).sum()) / (n * total) - (n + 1.0) / n)


def reciprocity(graph: CSRDiGraph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    edges = graph.edges_array()
    if len(edges) == 0:
        return 0.0
    reciprocal = sum(1 for src, dst in edges if graph.has_edge(int(dst), int(src)))
    return reciprocal / len(edges)


def self_loop_count(graph: CSRDiGraph) -> int:
    """Number of self loops (should be zero for every generator in this repo)."""
    edges = graph.edges_array()
    if len(edges) == 0:
        return 0
    return int((edges[:, 0] == edges[:, 1]).sum())


def local_clustering_coefficient(graph: CSRDiGraph, vertex: int) -> float:
    """Undirected local clustering coefficient of one vertex."""
    neighbors = np.union1d(graph.out_neighbors(vertex), graph.in_neighbors(vertex))
    neighbors = neighbors[neighbors != vertex]
    k = len(neighbors)
    if k < 2:
        return 0.0
    neighbor_set = set(int(v) for v in neighbors)
    links = 0
    for u in neighbors:
        targets = np.union1d(graph.out_neighbors(int(u)), graph.in_neighbors(int(u)))
        links += sum(1 for w in targets if int(w) in neighbor_set and int(w) != int(u))
    return links / (k * (k - 1))


def average_clustering_coefficient(graph: CSRDiGraph, sample_size: Optional[int] = None,
                                   seed: SeedLike = None) -> float:
    """Mean local clustering coefficient, optionally over a vertex sample.

    Exact computation is O(Σ deg²); for the larger synthetic datasets a
    uniform vertex sample (``sample_size``) gives an unbiased estimate.
    """
    n = graph.num_vertices
    if n == 0:
        return 0.0
    if sample_size is None or sample_size >= n:
        vertices = np.arange(n)
    else:
        vertices = make_rng(seed).choice(n, size=sample_size, replace=False)
    values = [local_clustering_coefficient(graph, int(v)) for v in vertices]
    return float(np.mean(values)) if values else 0.0
