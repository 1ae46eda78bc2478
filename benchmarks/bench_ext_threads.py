"""Ext-D (future work) — multi-threaded similarity scoring.

The paper's future work plans to evaluate "multiple threads".  Phase 4's
tuple scoring is the compute-bound part of an iteration; this benchmark
measures the scoring throughput of a large tuple batch for 1, 2 and 4
worker threads (the dense cosine kernel releases the GIL inside NumPy).
Exact speedups depend on the host; the benchmark asserts correctness
(identical scores) and records throughput for EXPERIMENTS.md.

Run with:  pytest benchmarks/bench_ext_threads.py --benchmark-only -s
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import ScoringWorkers, ShardStepTask
from repro.similarity.workloads import generate_dense_profiles
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 3000
NUM_PAIRS = 200_000


@pytest.fixture(scope="module")
def scoring_workload(tmp_path_factory):
    profiles = generate_dense_profiles(NUM_USERS, dim=32, num_communities=10, seed=31)
    store = OnDiskProfileStore.create(tmp_path_factory.mktemp("profiles"), profiles,
                                      disk_model="instant")
    rng = np.random.default_rng(31)
    pairs = rng.integers(0, NUM_USERS, size=(NUM_PAIRS, 2)).astype(np.int64)
    reference = store.load_users(range(NUM_USERS)).similarity_pairs(pairs, "cosine")
    return store, pairs, reference


@pytest.mark.parametrize("num_threads", (1, 2, 4))
def test_scoring_throughput_by_thread_count(benchmark, scoring_workload, num_threads):
    store, pairs, reference = scoring_workload
    # one part holding users 0..n-1, so a user's row is its id; the lone
    # task is cut row-wise across the pool
    task = ShardStepTask(parts=(("all", range(NUM_USERS)),),
                         batches=((0, 0, pairs[:, 0], pairs[:, 1]),),
                         measure="cosine", generation=None)
    with ScoringWorkers(store, backend="thread",
                        num_workers=num_threads) as workers:
        (scores,) = benchmark(workers.execute, [task])

    benchmark.extra_info["num_threads"] = num_threads
    benchmark.extra_info["pairs_scored"] = NUM_PAIRS
    assert np.allclose(scores, reference)


def test_threaded_engine_iteration_matches_sequential(benchmark, pedantic_kwargs):
    """A full iteration with 4 scoring threads produces the identical KNN graph."""
    profiles = generate_dense_profiles(800, dim=16, num_communities=6, seed=31)

    def run(num_workers):
        config = EngineConfig(k=8, num_partitions=6, backend="thread",
                              num_workers=num_workers, seed=31)
        with KNNEngine(profiles, config) as engine:
            return engine.run_iteration().graph

    threaded = benchmark.pedantic(run, args=(4,), **pedantic_kwargs)
    sequential = run(1)
    assert threaded.edge_difference(sequential) == 0
