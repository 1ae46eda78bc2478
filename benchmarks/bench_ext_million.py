"""Ext-D — the 1M-user tier: one iteration out-of-core under a hard byte budget.

The paper's subject is KNN over graphs whose profiles do not fit in memory.
This benchmark walks one step-at-a-time iteration over 1,000,000 dense users
(dim 8) in 64 partitions with ``memory_budget_bytes`` capping the partition
cache at an eighth of the profile store.  A load that would breach the
budget raises ``MemoryError`` and fails the run outright, so a completed
run stayed within budget; it must also have recorded its partition
load/unload operations (the paper's metric).

It needs about 1.2 GB of peak RSS (the unbudgeted in-core state that
``docs/performance.md`` "What is out-of-core" lists), so it is not part of
any CI job.  Run with:

    PYTHONPATH=src python -m pytest benchmarks/bench_ext_million.py --benchmark-only -s
"""

from __future__ import annotations

import resource

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.similarity.workloads import generate_dense_profiles

SEED = 11
NUM_USERS = 1_000_000
NUM_PARTITIONS = 64
DIM = 8
K = 4


def _run_million_tier(profiles, budget_bytes: int):
    config = EngineConfig(k=K, num_partitions=NUM_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED,
                          memory_budget_bytes=budget_bytes,
                          max_pairs_per_bridge=1)
    with KNNEngine(profiles, config) as engine:
        return engine.run_iteration()


def test_million_user_tier_runs_out_of_core(benchmark, pedantic_kwargs):
    profiles = generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=16,
                                       seed=SEED)
    store_bytes = int(profiles.matrix.nbytes)
    # two resident partitions (their rows, ids and edge lists) are ~1/10 of
    # the store, so an eighth still forces out-of-core execution
    budget_bytes = store_bytes // 8
    result = benchmark.pedantic(_run_million_tier, args=(profiles, budget_bytes),
                                **pedantic_kwargs)
    benchmark.extra_info.update({
        "store_bytes": store_bytes,
        "memory_budget_bytes": budget_bytes,
        "phase_seconds": {name: round(seconds, 3) for name, seconds
                          in result.phase_timer.as_dict().items()},
        "similarity_evaluations": result.similarity_evaluations,
        "load_unload_operations": result.load_unload_operations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(benchmark.extra_info)
    assert result.load_unload_operations > 0
