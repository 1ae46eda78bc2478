"""The budgeted-tier wall: the 1M-user tier's shape, at tier-1 scale.

``benchmarks/bench_ext_million.py`` runs one iteration over 1,000,000 dense
users (dim 8) in 64 partitions, k = 4, ``max_pairs_per_bridge=1``, with
``memory_budget_bytes`` capping the partition cache at an eighth of the
profile store.  It needs over a gigabyte and runs in no CI job.  This wall
runs the same shape on 1,280 users:

* on every schedule (heuristic x partitioner), dense and sparse, the capped
  iteration completes — a load that would breach the budget raises
  ``MemoryError`` — records load/unload operations, and the budget held
  partitions the whole way (its peak is charged, under the cap);
* the cap changes nothing else: the fingerprint, similarity evaluations,
  load/unload operations and bytes read equal the uncapped twin's (for a
  sparse store the cap also bounds the set kernel's derived state, which
  must not move a score);
* and the cap is exact: capped at the peak the walk reaches the iteration
  is the uncapped one, one byte lower it raises ``MemoryError``.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.partition.partitioners import available_partitioners
from repro.pigraph.traversal import HEURISTICS
from repro.similarity.workloads import (generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.memory_manager import MemoryBudget

NUM_USERS = 1280
NUM_ITEMS = 5000
ITEMS_PER_USER = 8
NUM_PARTITIONS = 64
DIM = 8
K = 4
SEED = 11
SCHEDULES = list(itertools.product(sorted(HEURISTICS),
                                   available_partitioners()))
KINDS = ["dense", "sparse"]


_PROFILES = {}


def _profiles(kind):
    if kind not in _PROFILES:
        _PROFILES[kind] = (
            generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=16,
                                    seed=SEED) if kind == "dense" else
            generate_sparse_profiles(NUM_USERS, NUM_ITEMS,
                                     items_per_user=ITEMS_PER_USER,
                                     num_communities=16, seed=SEED))
    return _PROFILES[kind]


def _store_bytes(profiles, kind):
    """What the profile store holds, priced as the budget prices it: 8 B a
    dense coordinate or a stored item."""
    if kind == "dense":
        return int(profiles.matrix.nbytes)
    return 8 * sum(len(profiles.get(user)) for user in range(NUM_USERS))


_RUNS = {}


def _run(kind, heuristic, partitioner, budget=None):
    """``(fingerprint, evaluations, load/unload operations, bytes read)`` of
    one iteration of the tier's shape, and the budget's peak (0 uncapped);
    each configuration runs once per session."""
    key = (kind, heuristic, partitioner, budget)
    if key not in _RUNS:
        peaks = [0.0]
        allocate = MemoryBudget.allocate

        def spied(memory_budget, num_bytes):
            allocate(memory_budget, num_bytes)
            peaks.append(memory_budget.peak_bytes)

        config = EngineConfig(k=K, num_partitions=NUM_PARTITIONS,
                              heuristic=heuristic, partitioner=partitioner,
                              seed=SEED, memory_budget_bytes=budget,
                              max_pairs_per_bridge=1)
        with mock.patch.object(MemoryBudget, "allocate", spied), \
                KNNEngine(_profiles(kind), config) as engine:
            result = engine.run_iteration()
        _RUNS[key] = ((result.graph.edge_fingerprint(),
                       result.similarity_evaluations,
                       result.load_unload_operations,
                       result.io_stats.bytes_read), max(peaks))
    return _RUNS[key]


def _an_eighth(kind):
    return _store_bytes(_profiles(kind), kind) // 8


@pytest.mark.parametrize("heuristic, partitioner", SCHEDULES,
                         ids=["-".join(schedule) for schedule in SCHEDULES])
@pytest.mark.parametrize("kind", KINDS)
def test_an_eighth_of_the_store_runs_every_schedule_unchanged(
        kind, heuristic, partitioner):
    capped, peak = _run(kind, heuristic, partitioner, _an_eighth(kind))
    assert 0 < peak <= _an_eighth(kind)
    assert capped[2] > 0
    assert capped == _run(kind, heuristic, partitioner)[0]


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
@pytest.mark.parametrize("kind", KINDS)
def test_the_cap_is_exact(kind, heuristic):
    _, peak = _run(kind, heuristic, "contiguous", _an_eighth(kind))
    assert _run(kind, heuristic, "contiguous", peak) == (
        _run(kind, heuristic, "contiguous")[0], peak)
    with pytest.raises(MemoryError):
        _run(kind, heuristic, "contiguous", peak - 1)
