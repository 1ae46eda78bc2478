"""NN-Descent (Dong, Moses & Li, WWW 2011) — the in-memory baseline.

NN-Descent is the algorithm the paper cites as reference [1] for KNN-graph
construction; the paper's contribution is making the same neighbours-of-
neighbours refinement loop run out-of-core.  This module implements the
standard in-memory algorithm (with the usual sampling and early-termination
refinements) so that benchmarks can compare quality and similarity-evaluation
counts between the in-memory baseline and the out-of-core engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.graph.knn_graph import KNNGraph
from repro.similarity.profiles import ProfileStoreBase
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class NNDescentResult:
    """Outcome of one NN-Descent run."""

    graph: KNNGraph
    iterations: int
    similarity_evaluations: int
    updates_per_iteration: List[int] = field(default_factory=list)
    converged: bool = False


class NNDescent:
    """In-memory NN-Descent KNN-graph construction.

    Parameters
    ----------
    k:
        Number of neighbours per user.
    measure:
        Similarity measure name (defaults to the profile store's default).
    sample_rate:
        Fraction of each vertex's neighbour lists sampled per iteration
        (``rho`` in the paper); 1.0 disables sampling.
    termination_fraction:
        Stop when fewer than ``termination_fraction * n * k`` neighbour
        updates happen in an iteration (``delta`` in the paper).
    max_iterations:
        Hard iteration cap.
    """

    def __init__(self, k: int, measure: Optional[str] = None,
                 sample_rate: float = 1.0,
                 termination_fraction: float = 0.001,
                 max_iterations: int = 30,
                 seed: SeedLike = None):
        check_positive_int(k, "k")
        check_fraction(sample_rate, "sample_rate")
        check_fraction(termination_fraction, "termination_fraction")
        check_positive_int(max_iterations, "max_iterations")
        if sample_rate == 0.0:
            raise ValueError("sample_rate must be > 0")
        self._k = k
        self._measure = measure
        self._sample_rate = sample_rate
        self._termination_fraction = termination_fraction
        self._max_iterations = max_iterations
        self._rng = make_rng(seed)

    def run(self, profiles: ProfileStoreBase,
            initial_graph: Optional[KNNGraph] = None) -> NNDescentResult:
        """Build the KNN graph of all users in ``profiles``."""
        n = profiles.num_users
        measure = self._measure or profiles.default_measure()
        if n <= self._k:
            raise ValueError(f"need more than k={self._k} users, got {n}")
        if initial_graph is None:
            graph = KNNGraph.random(n, self._k, seed=self._rng)
            self._score_initial(graph, profiles, measure)
        else:
            if initial_graph.num_vertices != n:
                raise ValueError("initial_graph vertex count does not match profiles")
            graph = initial_graph.copy()
        evaluations = 0
        updates_history: List[int] = []
        converged = False
        iteration = 0
        for iteration in range(1, self._max_iterations + 1):
            candidates = self._build_candidates(graph)
            updates = 0
            for vertex, candidate_set in enumerate(candidates):
                if not candidate_set:
                    continue
                others = np.asarray(sorted(candidate_set), dtype=np.int64)
                pairs = np.column_stack([
                    np.full(len(others), vertex, dtype=np.int64), others])
                scores = profiles.similarity_pairs(pairs, measure)
                evaluations += len(others)
                for other, score in zip(others, scores):
                    if graph.add_candidate(vertex, int(other), float(score)):
                        updates += 1
                    if graph.add_candidate(int(other), vertex, float(score)):
                        updates += 1
            updates_history.append(updates)
            if updates <= self._termination_fraction * n * self._k:
                converged = True
                break
        return NNDescentResult(
            graph=graph,
            iterations=iteration,
            similarity_evaluations=evaluations,
            updates_per_iteration=updates_history,
            converged=converged,
        )

    # -- internals ---------------------------------------------------------

    def _score_initial(self, graph: KNNGraph, profiles: ProfileStoreBase,
                       measure: str) -> None:
        """Replace the placeholder 0.0 scores of a random graph with real ones."""
        for vertex in range(graph.num_vertices):
            neighbors = graph.neighbors(vertex)
            if not neighbors:
                continue
            others = np.asarray(neighbors, dtype=np.int64)
            pairs = np.column_stack([np.full(len(others), vertex, dtype=np.int64), others])
            scores = profiles.similarity_pairs(pairs, measure)
            graph.set_neighbors(vertex, zip((int(v) for v in others),
                                            (float(s) for s in scores)))

    def _build_candidates(self, graph: KNNGraph) -> List[Set[int]]:
        """Neighbours-of-neighbours candidate sets (sampled, symmetrised)."""
        n = graph.num_vertices
        # forward + reverse neighbour lists, optionally sampled
        forward: List[List[int]] = []
        for vertex in range(n):
            neighbors = graph.neighbors(vertex)
            if self._sample_rate < 1.0 and len(neighbors) > 1:
                keep = max(1, int(round(self._sample_rate * len(neighbors))))
                picked = self._rng.choice(len(neighbors), size=keep, replace=False)
                neighbors = [neighbors[i] for i in picked]
            forward.append(neighbors)
        reverse: List[List[int]] = [[] for _ in range(n)]
        for vertex in range(n):
            for neighbor in forward[vertex]:
                reverse[neighbor].append(vertex)
        candidates: List[Set[int]] = [set() for _ in range(n)]
        for vertex in range(n):
            local = forward[vertex] + reverse[vertex]
            # all pairs within `local ∪ {vertex}` are potential neighbours
            for i, a in enumerate(local):
                if a != vertex:
                    candidates[vertex].add(a)
                for b in local[i + 1:]:
                    if a != b:
                        candidates[a].add(b)
        # drop pairs already present as neighbours to avoid rescoring
        for vertex in range(n):
            candidates[vertex] -= set(graph.neighbors(vertex))
            candidates[vertex].discard(vertex)
        return candidates
