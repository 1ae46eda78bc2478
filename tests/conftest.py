"""Shared pytest fixtures."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph.digraph import CSRDiGraph, DiGraph
from repro.graph.generators import powerlaw_fixed_size_graph
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import generate_dense_profiles, generate_sparse_profiles


@pytest.fixture
def shm_unchanged():
    """Fail the test if it changes the set of names under ``/dev/shm``.

    Nothing in the engine publishes a named shared-memory object, so a run —
    finished, crashed or with its pool workers killed mid-step — must leave
    that directory exactly as it found it.
    """
    def names():
        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    before = names()
    yield
    assert names() == before


@pytest.fixture
def small_digraph() -> DiGraph:
    """A tiny hand-built digraph used by unit tests.

    Edges: 0->1, 0->2, 1->2, 2->0, 3->0, 3->4, 4->3 (5 vertices, 7 edges).
    """
    graph = DiGraph(5)
    for src, dst in [(0, 1), (0, 2), (1, 2), (2, 0), (3, 0), (3, 4), (4, 3)]:
        graph.add_edge(src, dst)
    return graph


@pytest.fixture
def small_csr(small_digraph) -> CSRDiGraph:
    return small_digraph.to_csr()


@pytest.fixture
def medium_graph() -> CSRDiGraph:
    """A 200-vertex power-law graph, deterministic."""
    return powerlaw_fixed_size_graph(200, 1200, exponent=2.2, seed=42)


@pytest.fixture
def dense_profiles():
    """Dense profiles for 120 users with planted communities."""
    return generate_dense_profiles(120, dim=8, num_communities=4, noise=0.2, seed=7)


@pytest.fixture
def sparse_profiles():
    """Sparse profiles for 120 users over a 300-item catalogue."""
    return generate_sparse_profiles(120, 300, items_per_user=15, num_communities=4, seed=7)


@pytest.fixture
def random_knn():
    """A random KNN graph over 120 users with K=6."""
    return KNNGraph.random(120, 6, seed=13)
