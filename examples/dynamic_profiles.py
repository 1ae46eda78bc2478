#!/usr/bin/env python
"""Dynamic profiles: KNN computation while user profiles keep changing.

The paper's key departure from GraphChi/X-Stream is that both the graph
*and* the user profiles change during the computation.  Profile changes that
arrive during iteration ``t`` are buffered in a queue and applied lazily at
the end of the iteration (phase 5), producing ``P(t+1)``.

This example simulates a stream of profile churn (users consuming new items
and dropping old ones every iteration), feeds it to the engine through the
update queue, and shows that

* the queued changes are applied exactly at iteration boundaries,
* the KNN graph keeps improving against the *current* ground truth even
  though the target is moving,
* phase 5 is *incremental*: the segmented on-disk layout writes only the
  touched rows' journal entries each iteration (watch the ``p5 bytes``
  column stay orders of magnitude below the store size), bumping the store
  generation that keeps long-lived scoring workers cache-coherent, and
* phase 4 is *incremental* too: candidate tuples whose endpoints did not
  change since the last scored generation reuse their cached similarity
  verbatim — the ``rescored`` column (kernel work) shrinks towards the
  churn-touched tuples while ``reused`` grows, with bit-identical graphs.

Run with:  python examples/dynamic_profiles.py
"""

from __future__ import annotations

from repro import EngineConfig, KNNEngine
from repro.baselines.brute_force import brute_force_knn
from repro.similarity.workloads import generate_profile_churn, generate_sparse_profiles

NUM_USERS = 800
NUM_ITEMS = 3000
K = 8
ITERATIONS = 6
CHURN_FRACTION = 0.05          # 5% of users change their profile every iteration


def main() -> None:
    profiles = generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=25,
                                        num_communities=8, seed=3)
    config = EngineConfig(k=K, num_partitions=8, heuristic="degree-low-high",
                          measure="jaccard", seed=3)

    print(f"{'iter':>4} {'queued':>7} {'applied':>8} {'changed edges':>14} "
          f"{'rescored':>9} {'reused':>7} {'p5 (s)':>8} {'p5 bytes':>9} "
          f"{'gen':>4} {'recall (current truth)':>24}")

    with KNNEngine(profiles, config) as engine:
        previous_graph = engine.graph.copy()
        for iteration in range(ITERATIONS):
            # profile churn arriving *during* the iteration: buffered, not applied
            churn = generate_profile_churn(engine.profile_store.load_all(),
                                           change_fraction=CHURN_FRACTION,
                                           num_items=NUM_ITEMS, seed=100 + iteration)
            engine.enqueue_profile_changes(churn)

            result = engine.run_iteration()

            # ground truth against the *updated* profiles the next iteration will see
            current_profiles = engine.profile_store.load_all()
            exact = brute_force_knn(current_profiles, K, measure="jaccard")
            recall = result.graph.recall_against(exact)
            changed = result.graph.edge_difference(previous_graph)
            previous_graph = result.graph.copy()

            phase5_seconds = result.phase_timer.as_dict()["5-profile-update"]
            # write side of the profile store's I/O = this iteration's
            # incremental journal append (iteration 0 includes the initial
            # store write, so read the scaling from iterations 1+)
            phase5_bytes = result.profile_io_stats.bytes_written
            print(f"{iteration:>4} {len(churn):>7} {result.profile_updates_applied:>8} "
                  f"{changed:>14} {result.similarity_evaluations:>9} "
                  f"{result.reused_scores:>7} {phase5_seconds:>8.4f} "
                  f"{phase5_bytes:>9} {engine.profile_store.generation:>4} "
                  f"{recall:>24.3f}")

    print("\nThe recall climbs despite the moving target: the lazily-applied")
    print("profile updates keep each iteration consistent (it always sees the")
    print("profile snapshot P(t)), exactly as the paper's phase 5 prescribes.")
    print("And applying them stays cheap: each batch journals only the touched")
    print("rows of the segmented store (p5 bytes ≪ store size) and bumps the")
    print("generation that keeps persistent scoring workers cache-coherent.")
    print("Scoring them stays cheap too: the rescored column is the kernel")
    print("work per iteration — tuples between unchanged profiles reuse last")
    print("generation's scores (reused column) with bit-identical results.")


if __name__ == "__main__":
    main()
