"""Shared pytest fixtures."""

from __future__ import annotations

import contextlib
import functools
import os
from unittest import mock

import numpy as np
import pytest

import repro.core.iteration as iteration_module
from repro.graph.digraph import CSRDiGraph, DiGraph
from repro.graph.generators import powerlaw_fixed_size_graph
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import generate_dense_profiles, generate_sparse_profiles
from repro.storage.profile_store import OnDiskProfileStore
from runtime_contracts import Contracts


@pytest.fixture(scope="session", autouse=True)
def runtime_contracts():
    """The durability, lock and memmap contracts (``runtime_contracts.py``),
    watched over the whole session."""
    contracts = Contracts()
    with pytest.MonkeyPatch.context() as patch:
        contracts.install(patch)
        yield contracts


@pytest.fixture(autouse=True)
def contracts_held(runtime_contracts):
    """Fail the test during which a runtime contract broke."""
    runtime_contracts.take()
    yield
    broken = runtime_contracts.take()
    if broken:
        pytest.fail("runtime contract broken:\n" + "\n".join(broken),
                    pytrace=False)


def _unvouched(method, on=True, target=OnDiskProfileStore):
    """A context in which ``target``'s delta query ``method`` answers
    ``None`` — "cannot vouch" — whatever happened; a no-op when not ``on``."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.object(target, method, lambda *args: None)


def _every_step_executes(on=True):
    """A context in which phase 4 classifies every step as executed; a
    no-op when not ``on``."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.object(iteration_module, "classify_step",
                             lambda *counts: iteration_module.EXECUTE)


@pytest.fixture(scope="session")
def full_schedule():
    """``with full_schedule():`` runs engines on the full schedule: every
    residency step acquires its pair, none is skipped or gathered, and
    tuples still reuse their carried scores.  ``on=False`` makes it a no-op
    for parametrised twins."""
    return _every_step_executes


@pytest.fixture(scope="session")
def full_rescore():
    """``with full_rescore():`` runs engines that rescore every tuple on the
    full schedule: the store cannot vouch for its row deltas, so nothing
    carried is reused.  ``on=False`` makes it a no-op for parametrised
    twins; ``target=`` narrows it to one store."""
    return functools.partial(_unvouched, "touched_rows_since")


@pytest.fixture
def shm_unchanged():
    """Fail the test if it changes the set of names under ``/dev/shm``.

    Nothing in the engine publishes a named shared-memory object, so a run —
    finished or crashed mid-step — must leave that directory exactly as it
    found it.
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
