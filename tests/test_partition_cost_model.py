"""The cost-oracle wall (PR 21): partition traffic is charged in closed form.

``PartitionStore`` sizes the partition files from vertex and edge *counts*
and nothing under ``src/`` writes or reads one.  Everything here compares
those charges against references that share no code with the closed form:
the ``Partition`` objects ``build_partitions`` materialises (their array
sizes are what the files held, ``estimated_bytes`` what the cache charged),
and engine observations computed with the parent commit — which still wrote
and read the files — and committed here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import fork_available
from repro.graph.digraph import CSRDiGraph
from repro.partition.model import build_partitions, partition_layout
from repro.similarity.workloads import (generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.memory_manager import MemoryBudget
from repro.storage.partition_store import PartitionStore
from test_sorted_spine import _partitioned_graphs

# -- (a) the closed form against the materialised partitions ------------------


def _assert_charges_match(graph, assignment, m, bytes_per_user):
    store = PartitionStore(disk_model="instant")
    store.replace_all(graph, partition_layout(assignment, m), bytes_per_user)
    partitions = build_partitions(graph, assignment, m)
    file_bytes = [56 + 8 * len(p.vertices) + 8 * p.in_edges.size
                  + 8 * p.out_edges.size for p in partitions]
    assert store.io_stats.write_ops == m
    assert store.io_stats.bytes_written == sum(file_bytes)
    for partition, expected in zip(partitions, file_bytes):
        before = store.io_stats.bytes_read
        resident = store.read_partition(partition.pid)
        assert store.io_stats.bytes_read - before == expected
        assert resident == partition.estimated_bytes(bytes_per_user)
    assert store.io_stats.read_ops == m


class TestClosedFormAgainstBuiltPartitions:
    # the sorted-spine wall's graphs: empty partitions, a single partition,
    # more partitions than vertices and isolated vertices all happen
    @settings(max_examples=200, deadline=None)
    @given(_partitioned_graphs(), st.sampled_from([0, 8, 64, 100]))
    def test_charged_bytes_equal_the_partitions_bytes(self, case,
                                                      bytes_per_user):
        _assert_charges_match(*case, bytes_per_user)

    @pytest.mark.parametrize("assignment, m", [
        ([0, 0, 0, 0, 0], 1),           # a single partition
        ([0, 3, 3, 0, 3], 5),           # partitions 1, 2 and 4 stay empty
        ([2, 1, 0, 1, 2], 3),
    ], ids=["single", "empty", "spread"])
    def test_edge_cases(self, assignment, m):
        # vertex 4 is isolated, vertex 3 has a self loop and no other edge
        graph = CSRDiGraph.from_edges(5, [(0, 1), (1, 0), (0, 2), (3, 3)])
        _assert_charges_match(graph, np.asarray(assignment), m, 24)

    def test_a_knn_graph(self, medium_graph):
        assignment = np.random.default_rng(5).integers(0, 7, size=200)
        _assert_charges_match(medium_graph, assignment, 7, 64)


# -- (b) engines against what the parent commit's files cost ------------------

BACKENDS = ["serial", "thread", "process"]
BUDGET = 200_000


def _profiles(kind):
    if kind == "dense":
        return generate_dense_profiles(240, dim=8, num_communities=4, seed=5)
    return generate_sparse_profiles(240, 200, items_per_user=10,
                                    num_communities=4, seed=5)


def _config(backend, budget, shard=False):
    overrides = {} if backend == "serial" else {"num_workers": 2}
    return EngineConfig(k=5, num_partitions=6, heuristic="degree-low-high",
                        seed=3, memory_budget_bytes=budget, backend=backend,
                        shard_parallel=shard, **overrides)


@pytest.fixture
def allocations(monkeypatch):
    """Every successful ``MemoryBudget.allocate`` as the budget's peak after
    it — the budgets themselves are private to the iteration."""
    peaks = []
    allocate = MemoryBudget.allocate

    def spied(budget, num_bytes):
        allocate(budget, num_bytes)
        peaks.append(budget.peak_bytes)

    monkeypatch.setattr(MemoryBudget, "allocate", spied)
    return peaks


#: Per iteration ``(read_ops, write_ops, simulated_io_seconds)`` and the
#: run's ``MemoryBudget.peak_bytes``, by (kind, shard_parallel); the same on
#: every backend.  Computed at commit 3784424, the last to write the files.
_GOLDEN_COST = {
    ("dense", False): ([(38, 7, 0.0005605376), (38, 6, 0.0005155136),
                        (38, 6, 0.0005179776)], 19760.0),
    ("dense", True): ([(36, 7, 0.0004455456000000002), (36, 6, 0.0004006176),
                       (36, 6, 0.0004006176)], 5120.0),
    ("sparse", False): ([(38, 7, 0.0005747648), (38, 6, 0.0004943296),
                         (38, 6, 0.0004889536)], 24784.0),
    ("sparse", True): ([(36, 7, 0.00045977280000000017), (36, 6, 0.0004006176),
                        (36, 6, 0.0004006176)], 6400.0),
}
#: A budget the run outgrows — ``(budget, the error, allocations that fit
#: before it)`` by kind: dense on iteration 0's second load, sparse on
#: iteration 1's.  Same commit.
_GOLDEN_OVER_BUDGET = {
    "dense": (19_000, "allocation of 9488 bytes exceeds the memory budget "
                      "(9552/19000 bytes in use)", 1),
    "sparse": (24_000, "allocation of 11536 bytes exceeds the memory budget "
                       "(12656/24000 bytes in use)", 20),
}


class TestEnginesChargeWhatTheFilesCost:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shard", [False, True], ids=["steps", "waves"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_matches_the_parent_commit_and_leaves_no_file(
            self, kind, shard, backend, allocations):
        assert fork_available() or backend != "process", (
            "the process backend needs fork; this wall does not skip")
        with KNNEngine(_profiles(kind), _config(backend, BUDGET, shard)) as engine:
            run = engine.run(num_iterations=3)
            assert not (engine.workdir / "partitions").exists()
            assert not list(engine.workdir.rglob("partition_*.bin"))
        rows = [(r.io_stats.read_ops, r.io_stats.write_ops,
                 r.io_stats.simulated_io_seconds) for r in run.iterations]
        assert (rows, max(allocations)) == _GOLDEN_COST[kind, shard]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_over_budget_fails_on_the_same_step(self, kind, backend,
                                                allocations):
        assert fork_available() or backend != "process", (
            "the process backend needs fork; this wall does not skip")
        budget, message, fitting = _GOLDEN_OVER_BUDGET[kind]
        with KNNEngine(_profiles(kind), _config(backend, budget)) as engine:
            with pytest.raises(MemoryError) as caught:
                engine.run(num_iterations=3)
        assert str(caught.value) == message
        assert len(allocations) == fitting
