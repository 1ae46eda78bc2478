"""The array-native ``G(t)`` wall (PR 12).

:class:`KNNGraph` stores the graph as ``(n, k)`` arrays and merges, saves and
loads array-to-array.  Everything here compares that against references that
share no code with it: a dict-based merge oracle and a dict-based scalar
oracle written below, the old per-edge checkpoint writer, and digests
computed with the parent commit (the dict/heap implementation) and committed
here.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import load_knn_graph, save_knn_graph
from repro.graph.knn_graph import KNNGraph

# -- oracles -------------------------------------------------------------------


def oracle_merge(rows, k, batch):
    """One flush on ``rows`` (a dict ``neighbor -> score`` per vertex).

    The contract of ``add_candidates_batch`` from first principles: best
    score per offered edge (first arrival on equal scores), an incumbent
    kept unless strictly beaten, top-K by ``(-score, neighbor)``; returns the
    number of offered edges that survive.
    """
    offered = {}
    for src, dst, score in batch:
        if src != dst and ((src, dst) not in offered or score > offered[src, dst]):
            offered[src, dst] = score
    changed = 0
    for src in sorted({src for src, _ in offered}):
        merged, fresh = dict(rows[src]), set()
        for (s, dst), score in offered.items():
            if s == src and (dst not in merged or score > merged[dst]):
                merged[dst] = score
                fresh.add(dst)
        top = sorted(merged.items(), key=lambda e: (-e[1], e[0]))[:k]
        rows[src] = dict(top)
        changed += sum(1 for dst, _ in top if dst in fresh)
    return changed


def oracle_add(row, k, neighbor, score):
    """The scalar tie rule: a tie with the weakest does not enter; a full row
    evicts its weakest neighbour, the smallest id among equally weak ones."""
    if neighbor in row:
        if score <= row[neighbor]:
            return False
    elif len(row) == k:
        weakest = min(row, key=lambda other: (row[other], other))
        if score <= row[weakest]:
            return False
        del row[weakest]
    row[neighbor] = score
    return True


def _bits(entries):
    """``(neighbor, score)`` pairs with the zero's sign made comparable."""
    return [(nb, score, math.copysign(1.0, score)) for nb, score in entries]


def _assert_rows_equal(graph, rows):
    for vertex, row in enumerate(rows):
        expected = sorted(row.items(), key=lambda e: (-e[1], e[0]))
        assert _bits(graph.ranked(vertex)) == _bits(expected)
        assert graph.neighbors(vertex) == [nb for nb, _ in expected]
        assert graph.worst_score(vertex) == (
            expected[-1][1] if len(expected) == graph.k else float("-inf"))
    assert graph.num_edges == sum(len(row) for row in rows)


#: few distinct values, so exact ties, both zeros and boundary hits are common
_SCORES = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def _flushes(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=n - 1)
    batch = st.lists(st.tuples(vertex, vertex, _SCORES), max_size=40)
    return n, k, draw(st.lists(batch, min_size=1, max_size=5))


class TestMergeAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_flushes())
    def test_multi_flush_rows_scores_and_changed_counts(self, case):
        n, k, flushes = case
        graph, rows = KNNGraph(n, k), [{} for _ in range(n)]
        for batch in flushes:
            columns = [list(column) for column in zip(*batch)] or [[], [], []]
            assert graph.add_candidates_batch(*columns) == oracle_merge(rows, k, batch)
            _assert_rows_equal(graph, rows)

    @settings(max_examples=150, deadline=None)
    @given(_flushes(), st.integers(min_value=1, max_value=4))
    def test_unique_batches_sharded_and_assumed_unique(self, case, num_shards):
        n, k, flushes = case
        graph, rows = KNNGraph(n, k), [{} for _ in range(n)]
        for batch in flushes:
            batch = list({(src, dst): (src, dst, score)
                          for src, dst, score in batch}.values())
            columns = [list(column) for column in zip(*batch)] or [[], [], []]
            changed = graph.add_candidates_sharded(*columns, num_shards=num_shards,
                                                   assume_unique=True)
            assert changed == oracle_merge(rows, k, batch)
            _assert_rows_equal(graph, rows)

    def test_prefilter_boundary(self):
        """A candidate *equal* to a full row's weakest score still competes
        on the destination id; only a strictly lower one is dropped."""
        def full_row():
            graph = KNNGraph(10, 2)
            graph.add_candidates_batch([0, 0], [4, 5], [0.9, 0.5])
            return graph

        graph = full_row()
        assert graph.add_candidates_batch([0], [3], [0.5]) == 1     # smaller id enters
        assert graph.ranked(0) == [(4, 0.9), (3, 0.5)]
        graph = full_row()
        assert graph.add_candidates_batch([0], [6], [0.5]) == 0     # larger id does not
        assert graph.ranked(0) == [(4, 0.9), (5, 0.5)]
        graph = full_row()
        assert graph.add_candidates_batch([0, 0], [3, 5], [0.4999, 0.1]) == 0
        assert graph.ranked(0) == [(4, 0.9), (5, 0.5)]
        # an under-full row has no weakest score: anything enters
        graph = KNNGraph(10, 3)
        graph.add_candidates_batch([0], [4], [0.9])
        assert graph.add_candidates_batch([0], [3], [float("-inf")]) == 1
        assert graph.ranked(0) == [(4, 0.9), (3, float("-inf"))]


class TestScalarAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_flushes())
    def test_add_candidate_keeps_the_pinned_tie_rule(self, case):
        n, k, flushes = case
        graph, rows = KNNGraph(n, k), [{} for _ in range(n)]
        for src, dst, score in (offer for batch in flushes for offer in batch):
            expected = src != dst and oracle_add(rows[src], k, dst, score)
            assert graph.add_candidate(src, dst, score) is expected
            assert graph.neighbor_scores(src) == rows[src]
            assert graph.score(src, dst) == rows[src].get(dst)
        _assert_rows_equal(graph, rows)

    def test_set_neighbors_replaces_and_clears_the_row(self):
        graph = KNNGraph(8, 3)
        graph.set_neighbors(0, [(1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5), (0, 9.0)])
        assert graph.ranked(0) == [(1, 0.5), (2, 0.5), (3, 0.5)]   # first offered win ties
        graph.set_neighbors(0, [(7, 0.1)])
        assert graph.ranked(0) == [(7, 0.1)]
        assert graph.worst_score(0) == float("-inf")
        assert graph.num_edges == 1 and list(graph.edges()) == [(0, 7, 0.1)]


# -- golden graph: digests computed at the parent commit -------------------------

_GOLDEN_FINGERPRINT = "edcf3c06a40c4f2f09298156040df2485d879b3f46b6493cb8f5e2bf9f750bf5"
_GOLDEN_FILE_SHA256 = "a9a972b7eb383cfb8ff49829640c85109853fa7ec9cc9ce6416616ba6cef3b05"


def golden_graph():
    """Three flushes with heavy ties, empty and under-full rows and a -0.0."""
    rng = np.random.default_rng(20140612)
    n, k = 72, 5
    graph = KNNGraph(n, k)
    for _ in range(3):
        src = rng.integers(0, 64, size=600)
        dst = rng.integers(0, n, size=600)
        scores = np.round(rng.normal(size=600), 2)
        graph.add_candidates_batch(src, dst, scores)
    graph.add_candidates_batch([64, 64, 65], [1, 2, 3], [-0.0, 0.0, -1.5])
    return graph


def _file_bytes(n, k, edges):
    """The ``knn_graph_*.bin`` layout, built the way ``save_knn_graph`` used
    to: one Python row per edge."""
    return (b"RPCK0001" + np.asarray([n, k, len(edges)], dtype=np.int64).tobytes()
            + np.asarray([e[0] for e in edges], dtype=np.int64).tobytes()
            + np.asarray([e[1] for e in edges], dtype=np.int64).tobytes()
            + np.asarray([e[2] for e in edges], dtype=np.float64).tobytes())


def _write_file(path, n, k, edges):
    path.write_bytes(_file_bytes(n, k, edges))
    return path


class TestFingerprintAndFileLayout:
    def test_fingerprint_equals_the_parent_commits(self):
        graph = golden_graph()
        assert graph.num_edges == 323
        assert graph.edge_fingerprint() == _GOLDEN_FINGERPRINT

    def test_edges_and_views_agree(self):
        graph = golden_graph()
        edges = list(graph.edges())
        assert edges == sorted(edges) and len(edges) == graph.num_edges
        assert graph.edge_array().tolist() == [[s, d] for s, d, _ in edges]
        assert graph.average_score() == pytest.approx(
            sum(score for _, _, score in edges) / len(edges), rel=1e-12)
        clone = graph.copy()
        clone.add_candidate(70, 71, 1.0)
        assert graph.edge_fingerprint() == _GOLDEN_FINGERPRINT
        assert clone.edge_difference(graph) == 1
        csr = graph.to_csr()
        assert csr.edges_array().tolist() == graph.edge_array().tolist()

    def test_saved_bytes_equal_the_old_writers(self, tmp_path):
        graph = golden_graph()
        save_knn_graph(tmp_path / "g.bin", graph)
        raw = (tmp_path / "g.bin").read_bytes()
        assert raw == _file_bytes(graph.num_vertices, graph.k, list(graph.edges()))
        assert hashlib.sha256(raw).hexdigest() == _GOLDEN_FILE_SHA256

    def test_canonical_file_loads_to_the_same_rows(self, tmp_path):
        graph = golden_graph()
        save_knn_graph(tmp_path / "g.bin", graph)
        loaded = load_knn_graph(tmp_path / "g.bin")
        assert (loaded.num_vertices, loaded.k) == (graph.num_vertices, graph.k)
        for vertex in range(graph.num_vertices):
            assert _bits(loaded.ranked(vertex)) == _bits(graph.ranked(vertex))
        assert loaded.edge_fingerprint() == _GOLDEN_FINGERPRINT

    def test_empty_graph_roundtrip(self, tmp_path):
        save_knn_graph(tmp_path / "g.bin", KNNGraph(4, 2))
        loaded = load_knn_graph(tmp_path / "g.bin")
        assert (loaded.num_vertices, loaded.k, loaded.num_edges) == (4, 2, 0)

    def test_shuffled_file_loads_through_the_scalar_path(self, tmp_path):
        graph = golden_graph()
        edges = list(graph.edges())
        np.random.default_rng(3).shuffle(edges)
        loaded = load_knn_graph(_write_file(tmp_path / "g.bin", 72, 5, edges))
        assert loaded.edge_fingerprint() == _GOLDEN_FINGERPRINT

    def test_over_full_file_is_replayed_edge_by_edge(self, tmp_path):
        """Three edges for a k=2 vertex, in the writer's order: the replay
        evicts the smaller id of the tied pair and keeps ``{2, 3}``; a bulk
        ``(-score, id)`` placement would have kept ``{3, 1}``."""
        edges = [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.6)]
        loaded = load_knn_graph(_write_file(tmp_path / "g.bin", 5, 2, edges))
        assert loaded.ranked(0) == [(3, 0.6), (2, 0.5)]
        # descending ids with tied scores: later ties never enter
        edges = [(0, 3, 0.5), (0, 2, 0.5), (0, 1, 0.5)]
        loaded = load_knn_graph(_write_file(tmp_path / "g.bin", 5, 2, edges))
        assert loaded.ranked(0) == [(2, 0.5), (3, 0.5)]

    def test_damaged_files_still_raise(self, tmp_path):
        save_knn_graph(tmp_path / "g.bin", golden_graph())
        raw = (tmp_path / "g.bin").read_bytes()
        (tmp_path / "short.bin").write_bytes(raw[:-9])
        with pytest.raises(ValueError, match="truncated"):
            load_knn_graph(tmp_path / "short.bin")
        (tmp_path / "magic.bin").write_bytes(b"XXXXXXXX" + raw[8:])
        with pytest.raises(ValueError, match="bad magic"):
            load_knn_graph(tmp_path / "magic.bin")
        with pytest.raises(IndexError):
            load_knn_graph(_write_file(tmp_path / "range.bin", 3, 2, [(0, 7, 0.5)]))


def test_million_vertex_graph_is_three_arrays():
    """The 1M tier: construction, merge, ``copy()`` and ``to_csr()`` without a
    per-vertex Python object — the graph's storage is exactly the three
    arrays (the dict/heap form was over 1 kB a vertex)."""
    n, k = 1_000_000, 10
    graph = KNNGraph(n, k)
    assert graph.nbytes == n * k * 16 + n * 8
    sources = np.repeat(np.arange(n, dtype=np.int64), 2)
    destinations = (sources + np.tile(np.asarray([1, 2], dtype=np.int64), n)) % n
    scores = (destinations % 7) / 7.0
    assert graph.add_candidates_batch(sources, destinations, scores,
                                      assume_unique=True) == 2 * n
    clone = graph.copy()
    assert clone.nbytes == graph.nbytes == n * k * 16 + n * 8
    assert clone.num_edges == 2 * n and clone.neighbors(n - 1) == [1, 0]
    csr = graph.to_csr()
    assert csr.num_edges == 2 * n
    assert csr.out_neighbors(n - 1).tolist() == [0, 1]
    assert csr.in_neighbors(0).tolist() == [n - 2, n - 1]
