#!/usr/bin/env python
"""Item recommendation from an out-of-core KNN graph.

The paper motivates KNN with recommender systems: once each user's K most
similar users are known, items can be recommended by aggregating what those
neighbours consumed.  This example builds the KNN graph with the out-of-core
engine over *sparse* item-set profiles (Jaccard similarity) and then produces
top-N item recommendations for a few users, excluding items they already have.

It also contrasts the engine against NN-Descent (the in-memory baseline the
paper cites) on quality and similarity-evaluation cost.

Run with:  python examples/recommender.py
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro import EngineConfig, KNNEngine
from repro.baselines.brute_force import brute_force_knn
from repro.baselines.nn_descent import NNDescent
from repro.graph.knn_graph import KNNGraph
from repro.similarity.profiles import SparseProfileStore
from repro.similarity.workloads import generate_sparse_profiles

NUM_USERS = 1500
NUM_ITEMS = 5000
K = 10
TOP_N = 5


def recommend(graph: KNNGraph, profiles: SparseProfileStore,
              user: int, top_n: int = TOP_N) -> List[int]:
    """Recommend items consumed by the user's KNN, weighted by similarity rank."""
    own_items = profiles.get(user)
    votes: Counter = Counter()
    for rank, neighbor in enumerate(graph.neighbors(user)):
        weight = graph.k - rank                     # closer neighbours count more
        for item in profiles.get(neighbor):
            if item not in own_items:
                votes[item] += weight
    return [item for item, _ in votes.most_common(top_n)]


def main() -> None:
    print(f"generating {NUM_USERS} users over a {NUM_ITEMS}-item catalogue ...")
    profiles = generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=30,
                                        num_communities=10, seed=2)

    config = EngineConfig(
        k=K,
        num_partitions=10,
        partitioner="greedy-locality",      # the paper's locality objective
        heuristic="degree-low-high",
        measure="jaccard",
        seed=2,
    )
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=6, convergence_threshold=0.02)
    graph = run.final_graph
    # the evaluation counts below are compared against NN-Descent and brute
    # force, which reuse no score: count every candidate pair the way the
    # paper does (see examples/dynamic_profiles.py for the carried state's
    # rescored/reused accounting instead)
    evaluations = sum(result.num_candidate_tuples for result in run.iterations)

    print(f"\nengine finished in {run.num_iterations} iterations, "
          f"{evaluations} similarity evaluations, "
          f"{run.total_load_unload_operations} partition load/unload operations")

    print(f"\ntop-{TOP_N} recommendations:")
    for user in (0, 1, 2, 42, 777):
        items = recommend(graph, profiles, user)
        print(f"  user {user:>4}: {items}")

    # --- quality and cost vs the baselines -------------------------------
    print("\ncomparing against baselines (this computes an exact KNN graph) ...")
    exact = brute_force_knn(profiles, K, measure="jaccard")
    descent = NNDescent(k=K, measure="jaccard", seed=2).run(profiles)

    total_pairs = NUM_USERS * (NUM_USERS - 1)
    print(f"{'method':<22} {'recall':>8} {'similarity evals':>18}")
    print(f"{'out-of-core engine':<22} {graph.recall_against(exact):>8.3f} "
          f"{evaluations:>18}")
    print(f"{'NN-Descent':<22} {descent.graph.recall_against(exact):>8.3f} "
          f"{descent.similarity_evaluations:>18}")
    print(f"{'brute force':<22} {1.0:>8.3f} {total_pairs:>18}")


if __name__ == "__main__":
    main()
