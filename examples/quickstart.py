#!/usr/bin/env python
"""Quickstart: build a KNN graph out-of-core with the five-phase engine.

This is the smallest end-to-end use of the public API:

1. generate (or load) user profiles,
2. configure the engine (K, number of partitions, traversal heuristic),
3. run a few iterations,
4. read neighbours off the resulting KNN graph and check quality against
   the exact brute-force answer.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import EngineConfig, KNNEngine
from repro.baselines.brute_force import brute_force_knn
from repro.similarity.workloads import generate_dense_profiles
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()

    # 1. A synthetic workload: 2 000 users, 16-dimensional taste vectors with
    #    8 planted communities (so there is real neighbourhood structure).
    profiles = generate_dense_profiles(num_users=2000, dim=16,
                                       num_communities=8, noise=0.25, seed=1)

    # 2. Engine configuration: K=10 neighbours, 8 partitions, at most
    #    two partitions resident (the paper's memory constraint), and the
    #    degree-based low-to-high PI-graph traversal heuristic.
    #
    #    Phase-4 scoring is parallelisable via two knobs — who runs the
    #    kernel, and how wide (all backends produce bit-identical graphs):
    #      backend="thread",  num_workers=4  — thread pool (kernels drop the GIL)
    #      backend="process", num_workers=4  — process pool; workers re-open the
    #                                          profile store read-only by path and
    #                                          score against zero-copy mmap slices
    #
    #    For a crash-safe deployment add durable=True (+ a workdir): every
    #    iteration commits atomically and streamed profile updates land in a
    #    write-ahead log, so a killed run resumes bit-identically via
    #    KNNEngine.recover(workdir).  See docs/robustness.md.  For an
    #    always-on deployment — snapshot-isolated queries + streaming
    #    updates around this same engine — see examples/serving.py and
    #    docs/serving.md.
    config = EngineConfig(
        k=10,
        num_partitions=8,
        partitioner="contiguous",
        heuristic="degree-low-high",
        disk_model="ssd",
        backend="thread",
        num_workers=1,
        seed=1,
    )

    # 3. Run five iterations (or stop early once fewer than 1% of KNN edges change).
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=5, convergence_threshold=0.01)

        print("\n=== run summary ===")
        print(f"iterations run           : {run.num_iterations}")
        print(f"converged                : {run.convergence.converged}")
        print(f"similarity evaluations   : {run.total_similarity_evaluations}")
        print(f"partition load/unload ops: {run.total_load_unload_operations}")
        print(f"simulated disk time      : {run.total_io.simulated_io_seconds:.3f}s")
        print("\nper-phase wall-clock time:")
        print(run.total_phases.format_table())

        # 4. Use the result: the 10 most similar users of user 0, best first.
        graph = run.final_graph
        print(f"\nKNN of user 0: {graph.neighbors(0)}")

    # Quality check against the exact answer (feasible at this small scale).
    exact = brute_force_knn(profiles, k=10, measure="cosine")
    recall = graph.recall_against(exact)
    print(f"recall against brute force: {recall:.3f}")


if __name__ == "__main__":
    main()
