"""In-memory implementation of the paper's KNN iteration.

This is algorithmically the same computation as the out-of-core engine —
at iteration ``t`` every user is compared against its neighbours and
neighbours' neighbours in ``G(t)`` and keeps the top-K — but it holds the
whole graph and all profiles in memory and performs no partitioning.  It
serves two purposes:

* a correctness oracle: the out-of-core engine must produce exactly the same
  ``G(t+1)`` from the same ``G(t)`` and profiles;
* the "unconstrained memory" comparison point for the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

import numpy as np

from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import get_measure, is_set_measure
from repro.similarity.profiles import ProfileStoreBase, SparseProfileStore
from repro.utils.validation import check_positive_int


def _scorer(profiles: ProfileStoreBase, measure: str
            ) -> Callable[[int, np.ndarray], np.ndarray]:
    """``score(user, others)``: the similarity of ``user`` to each of ``others``.

    Set measures on item sets are scored pair by pair by the scalar
    functions of :data:`~repro.similarity.measures.MEASURES` — code the
    batch set kernel (``SetProfileCSR``) shares nothing with, so a kernel
    bug cannot vouch for itself in this oracle.  Vector measures go through
    the store's batch path.
    """
    if is_set_measure(measure) and isinstance(profiles, SparseProfileStore):
        fn = get_measure(measure)
        sets = [profiles.get(user) for user in range(profiles.num_users)]
        return lambda user, others: np.fromiter(
            (fn(sets[user], sets[other]) for other in others.tolist()),
            dtype=np.float64, count=len(others))
    return lambda user, others: profiles.similarity_pairs(
        np.column_stack([np.full(len(others), user, dtype=np.int64), others]),
        measure)


@dataclass
class InMemoryIterationResult:
    """Outcome of one in-memory KNN iteration."""

    graph: KNNGraph
    similarity_evaluations: int
    candidate_pairs: int


class InMemoryKNNIterator:
    """Runs paper-style KNN iterations entirely in memory."""

    def __init__(self, k: int, measure: Optional[str] = None):
        check_positive_int(k, "k")
        self._k = k
        self._measure = measure

    @property
    def k(self) -> int:
        return self._k

    def iterate(self, graph: KNNGraph, profiles: ProfileStoreBase) -> InMemoryIterationResult:
        """Compute ``G(t+1)`` from ``G(t)`` and the current profiles."""
        if graph.num_vertices != profiles.num_users:
            raise ValueError("graph and profile store disagree on the number of users")
        measure = self._measure or profiles.default_measure()
        score = _scorer(profiles, measure)
        n = graph.num_vertices
        new_graph = KNNGraph(n, self._k)
        evaluations = 0
        candidate_pairs = 0

        # candidate set per user: direct neighbours plus neighbours' neighbours
        for user in range(n):
            candidates: Set[int] = set()
            direct = graph.neighbors(user)
            candidates.update(direct)
            for neighbor in direct:
                candidates.update(graph.neighbors(neighbor))
            candidates.discard(user)
            candidate_pairs += len(candidates)
            if not candidates:
                continue
            others = np.asarray(sorted(candidates), dtype=np.int64)
            scores = score(user, others)
            evaluations += len(others)
            new_graph.set_neighbors(user, zip((int(v) for v in others),
                                              (float(s) for s in scores)))
        return InMemoryIterationResult(
            graph=new_graph,
            similarity_evaluations=evaluations,
            candidate_pairs=candidate_pairs,
        )

    def run(self, profiles: ProfileStoreBase, num_iterations: int,
            initial_graph: Optional[KNNGraph] = None,
            seed=None) -> List[InMemoryIterationResult]:
        """Run ``num_iterations`` iterations starting from ``initial_graph``.

        When no initial graph is given, a random K-regular graph is used,
        matching the engine's default initialisation.
        """
        check_positive_int(num_iterations, "num_iterations")
        graph = initial_graph if initial_graph is not None else KNNGraph.random(
            profiles.num_users, self._k, seed=seed)
        results: List[InMemoryIterationResult] = []
        current = graph
        for _ in range(num_iterations):
            result = self.iterate(current, profiles)
            results.append(result)
            current = result.graph
        return results
