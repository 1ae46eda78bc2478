"""Convergence tracking across KNN iterations.

Two complementary signals are tracked:

* the **edge-change rate**: the fraction of KNN edges that differ between
  ``G(t)`` and ``G(t+1)`` — cheap, always available, and the criterion a
  production run would use;
* the **recall** against an exact brute-force KNN graph, when the caller can
  afford to compute one — the quality metric used by the evaluation
  benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.graph.knn_graph import KNNGraph
from repro.utils.validation import check_fraction


@dataclass
class ConvergenceTracker:
    """Accumulates per-iteration change statistics and decides convergence.

    ``threshold`` is the edge-change *rate* (changed edges divided by the
    total number of KNN edges) below which the computation is declared
    converged.
    """

    threshold: float = 0.01
    exact_graph: Optional[KNNGraph] = None
    changed_edges: List[int] = field(default_factory=list)
    change_rates: List[float] = field(default_factory=list)
    recalls: List[float] = field(default_factory=list)
    average_scores: List[float] = field(default_factory=list)

    def __post_init__(self):
        check_fraction(self.threshold, "threshold")

    def record(self, previous: KNNGraph, current: KNNGraph) -> float:
        """Record one iteration transition; returns the edge-change rate."""
        changed = current.edge_difference(previous)
        total = max(1, current.num_edges + previous.num_edges)
        # the symmetric difference double counts replaced edges, so normalise
        # by the average edge count of the two graphs
        rate = changed / (total / 2)
        self.changed_edges.append(changed)
        self.change_rates.append(rate)
        self.average_scores.append(current.average_score())
        if self.exact_graph is not None:
            self.recalls.append(current.recall_against(self.exact_graph))
        return rate

    @property
    def iterations_recorded(self) -> int:
        return len(self.change_rates)

    @property
    def converged(self) -> bool:
        """True once the most recent change rate is below the threshold."""
        return bool(self.change_rates) and self.change_rates[-1] <= self.threshold

    def summary(self) -> dict:
        return {
            "iterations": self.iterations_recorded,
            "converged": self.converged,
            "change_rates": list(self.change_rates),
            "recalls": list(self.recalls),
            "average_scores": list(self.average_scores),
        }
