"""Tests for repro.core.convergence."""

import pytest

from repro.core.convergence import ConvergenceTracker
from repro.graph.knn_graph import KNNGraph


class TestConvergenceTracker:
    def test_identical_graphs_converge(self):
        graph = KNNGraph.random(40, 4, seed=1)
        tracker = ConvergenceTracker(threshold=0.01)
        rate = tracker.record(graph, graph.copy())
        assert rate == 0.0
        assert tracker.converged

    def test_different_graphs_do_not_converge(self):
        a = KNNGraph.random(40, 4, seed=2)
        b = KNNGraph.random(40, 4, seed=3)
        tracker = ConvergenceTracker(threshold=0.01)
        rate = tracker.record(a, b)
        assert rate > 0.01
        assert not tracker.converged

    def test_recall_recorded_with_exact_graph(self):
        exact = KNNGraph.random(30, 3, seed=4)
        tracker = ConvergenceTracker(threshold=0.5, exact_graph=exact)
        tracker.record(KNNGraph.random(30, 3, seed=5), exact.copy())
        assert tracker.recalls == [pytest.approx(1.0)]

    def test_no_recall_without_exact_graph(self):
        tracker = ConvergenceTracker()
        tracker.record(KNNGraph.random(20, 2, seed=6), KNNGraph.random(20, 2, seed=7))
        assert tracker.recalls == []

    def test_history_grows(self):
        tracker = ConvergenceTracker()
        a = KNNGraph.random(20, 2, seed=8)
        b = KNNGraph.random(20, 2, seed=9)
        tracker.record(a, b)
        tracker.record(b, b.copy())
        assert tracker.iterations_recorded == 2
        assert len(tracker.change_rates) == 2
        assert len(tracker.average_scores) == 2

    def test_summary_keys(self):
        tracker = ConvergenceTracker()
        tracker.record(KNNGraph.random(20, 2, seed=10), KNNGraph.random(20, 2, seed=11))
        summary = tracker.summary()
        assert set(summary) == {"iterations", "converged", "change_rates",
                                "recalls", "average_scores"}

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ConvergenceTracker(threshold=1.5)

    def test_empty_tracker_not_converged(self):
        assert not ConvergenceTracker().converged
