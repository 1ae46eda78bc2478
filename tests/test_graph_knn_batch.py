"""Tests for the array-backed bulk-update path of :class:`KNNGraph`.

The property at the heart of the vectorised phase 4: for any candidate
stream with distinct scores, ``add_candidates_batch`` must produce a graph
identical (same edges, same scores) to feeding the same stream through
per-edge ``add_candidate`` calls in order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.knn_graph import KNNGraph, _descending_score_argsort


def _random_candidates(rng, num_vertices, count):
    src = rng.integers(0, num_vertices, size=count)
    dst = rng.integers(0, num_vertices, size=count)
    # continuous scores are distinct with probability 1, making the
    # sequential result order-independent and the parity exact
    scores = rng.random(count)
    return src, dst, scores


def _assert_graphs_identical(a: KNNGraph, b: KNNGraph):
    assert a.edge_difference(b) == 0
    for v in range(a.num_vertices):
        assert a.neighbor_scores(v) == pytest.approx(b.neighbor_scores(v))


class TestBatchMatchesSequential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_batch_parity(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 60, 5
        src, dst, scores = _random_candidates(rng, n, 800)
        sequential = KNNGraph(n, k)
        for s, d, sc in zip(src, dst, scores):
            sequential.add_candidate(int(s), int(d), float(sc))
        batched = KNNGraph(n, k)
        batched.add_candidates_batch(src, dst, scores)
        _assert_graphs_identical(sequential, batched)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_multiple_batches_with_incumbents(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 40, 4
        sequential = KNNGraph(n, k)
        batched = KNNGraph(n, k)
        for _ in range(5):
            src, dst, scores = _random_candidates(rng, n, 300)
            for s, d, sc in zip(src, dst, scores):
                sequential.add_candidate(int(s), int(d), float(sc))
            batched.add_candidates_batch(src, dst, scores)
        _assert_graphs_identical(sequential, batched)

    def test_assume_unique_fast_path_parity(self):
        rng = np.random.default_rng(9)
        n, k = 50, 6
        # unique (src, dst) pairs, as guaranteed by the tuple hash table
        keys = rng.choice(n * n, size=1200, replace=False)
        src, dst = keys // n, keys % n
        keep = src != dst
        src, dst = src[keep], dst[keep]
        scores = rng.random(len(src))
        general = KNNGraph(n, k)
        general.add_candidates_batch(src, dst, scores)
        fast = KNNGraph(n, k)
        fast.add_candidates_batch(src, dst, scores, assume_unique=True)
        _assert_graphs_identical(general, fast)

    def test_duplicate_pairs_keep_best_score(self):
        graph = KNNGraph(5, 2)
        graph.add_candidates_batch([0, 0, 0], [1, 1, 2], [0.2, 0.9, 0.5])
        assert graph.score(0, 1) == pytest.approx(0.9)
        assert graph.score(0, 2) == pytest.approx(0.5)

    def test_batch_improves_existing_scores(self):
        graph = KNNGraph(5, 3)
        graph.add_candidate(0, 1, 0.1)
        graph.add_candidate(0, 2, 0.8)
        changed = graph.add_candidates_batch([0, 0], [1, 2], [0.5, 0.3])
        assert changed == 1                      # only (0, 1) improved
        assert graph.score(0, 1) == pytest.approx(0.5)
        assert graph.score(0, 2) == pytest.approx(0.8)


class TestDescendingScoreRadixSort:
    """The order-isomorphic score-key radix pass replacing the merge's last
    global comparison sort.  The contract: bit-identical permutation to
    ``np.argsort(-scores, kind="stable")`` for every NaN-free float64 input,
    with −0.0/+0.0 tie semantics pinned (they compare equal, so stability
    must preserve arrival order across the two encodings)."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=False, width=64),
        min_size=1, max_size=300))
    def test_matches_stable_comparison_sort(self, values):
        scores = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(
            _descending_score_argsort(scores),
            np.argsort(-scores, kind="stable"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5,
                         np.inf, -np.inf, 5e-324, -5e-324]),
        min_size=1, max_size=120))
    def test_heavy_ties_including_signed_zeros(self, values):
        """Duplicates everywhere: stability is the whole answer here, and
        −0.0 must tie with +0.0 (fold, not order, the two encodings)."""
        scores = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(
            _descending_score_argsort(scores),
            np.argsort(-scores, kind="stable"))

    def test_signed_zero_tie_keeps_arrival_order(self):
        scores = np.asarray([-0.0, 1.0, 0.0, -0.0, 0.0])
        order = _descending_score_argsort(scores)
        # 1.0 first, then the four (equal) zeros in arrival order
        np.testing.assert_array_equal(order, [1, 0, 2, 3, 4])

    def test_nan_scores_rejected_at_the_public_api(self):
        """The radix key map is only order-isomorphic on non-NaN floats, so
        NaN batches must fail loudly instead of mis-ranking candidates."""
        graph = KNNGraph(10, 3)
        with pytest.raises(ValueError, match="NaN"):
            graph.add_candidates_batch(
                np.asarray([0, 0]), np.asarray([1, 2]),
                np.asarray([0.5, np.nan]))

    def test_batch_path_unchanged_with_zero_ties(self):
        """End to end through add_candidates_batch: scores containing both
        zero encodings still produce the documented deterministic graph."""
        n, k = 20, 3
        src = np.asarray([0, 0, 0, 0, 0], dtype=np.int64)
        dst = np.asarray([1, 2, 3, 4, 5], dtype=np.int64)
        scores = np.asarray([0.0, -0.0, 0.0, -0.0, 0.5])
        graph = KNNGraph(n, k)
        graph.add_candidates_batch(src, dst, scores, assume_unique=True)
        # 0.5 wins, then the earliest zero-scored rows in arrival order
        assert graph.neighbors(0) == [5, 1, 2]


class TestBatchValidation:
    def test_self_pairs_filtered(self):
        graph = KNNGraph(5, 2)
        assert graph.add_candidates_batch([1, 2], [1, 3], [0.5, 0.6]) == 1
        assert graph.neighbors(1) == []
        assert graph.neighbors(2) == [3]

    def test_out_of_range_raises(self):
        graph = KNNGraph(3, 1)
        with pytest.raises(IndexError):
            graph.add_candidates_batch([0], [9], [1.0])
        with pytest.raises(IndexError):
            graph.add_candidates_batch([-1], [1], [1.0])

    def test_length_mismatch_raises(self):
        graph = KNNGraph(3, 1)
        with pytest.raises(ValueError):
            graph.add_candidates_batch([0, 1], [1], [1.0])

    def test_empty_batch_is_noop(self):
        graph = KNNGraph(3, 1)
        assert graph.add_candidates_batch([], [], []) == 0
        assert graph.num_edges == 0


class TestLazyHeap:
    def test_score_improvements_keep_worst_score_correct(self):
        graph = KNNGraph(5, 2)
        graph.add_candidate(0, 1, 0.2)
        graph.add_candidate(0, 2, 0.5)
        # improve the weakest neighbour repeatedly; a superseded score
        # must never surface as the worst score
        graph.add_candidate(0, 1, 0.6)
        assert graph.worst_score(0) == pytest.approx(0.5)
        graph.add_candidate(0, 2, 0.9)
        assert graph.worst_score(0) == pytest.approx(0.6)
        # eviction must pick the true weakest neighbour (1 at 0.6)
        assert graph.add_candidate(0, 3, 0.7) is True
        assert set(graph.neighbors(0)) == {2, 3}

    def test_many_improvements_keep_scores_correct(self):
        graph = KNNGraph(4, 2)
        graph.add_candidate(0, 1, 0.0)
        graph.add_candidate(0, 2, 0.0)
        for step in range(1, 200):
            assert graph.add_candidate(0, 1, step * 0.01) is True
        assert graph.neighbors(0) == [1, 2]
        assert graph.score(0, 1) == pytest.approx(1.99)
        assert graph.worst_score(0) == pytest.approx(0.0)


class TestVectorisedViews:
    def test_edge_array_sorted_per_vertex(self):
        graph = KNNGraph(6, 3)
        graph.add_candidates_batch([2, 2, 0], [5, 1, 3], [0.4, 0.9, 0.2])
        arr = graph.edge_array()
        assert arr.tolist() == [[0, 3], [2, 1], [2, 5]]

    def test_edge_difference_and_recall_match_setwise(self):
        rng = np.random.default_rng(3)
        n, k = 30, 4
        a = KNNGraph(n, k)
        b = KNNGraph(n, k)
        for g, seed in ((a, 10), (b, 11)):
            r = np.random.default_rng(seed)
            s, d, sc = _random_candidates(r, n, 400)
            g.add_candidates_batch(s, d, sc)
        edges_a = {(int(s), int(d)) for s, d, _ in a.edges()}
        edges_b = {(int(s), int(d)) for s, d, _ in b.edges()}
        assert a.edge_difference(b) == len(edges_a ^ edges_b)
        assert a.recall_against(b) == pytest.approx(
            len(edges_a & edges_b) / len(edges_b))
