"""The array-native ``G(t)`` wall (PR 12).

:class:`KNNGraph` stores the graph as ``(n, k)`` arrays and merges, saves and
loads array-to-array.  Everything here compares that against references that
share no code with it: a dict-based merge oracle and a dict-based scalar
oracle written below, the graph file rebuilt from the public rows, and
digests computed with the dict/heap implementation and committed here (the
file digest re-recorded when the file became the ranked arrays).  The
loader's checks get one broken file each.  ``KNNGraph.random`` (G(0)) is
checked for what any draw must hold and, over 3,000 seeds, for uniformity.
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
    @given(_flushes())
    def test_unique_batches_sharded_and_assumed_unique(self, case):
        n, k, flushes = case
        graph, rows = KNNGraph(n, k), [{} for _ in range(n)]
        for batch in flushes:
            batch = list({(src, dst): (src, dst, score)
                          for src, dst, score in batch}.values())
            columns = [list(column) for column in zip(*batch)] or [[], [], []]
            changed = graph.add_candidates_sharded(*columns, assume_unique=True)
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
#: the ``RPCK0002`` file of the golden graph (the edge-column file it
#: replaced hashed to a9a972b7...cef3b05)
_GOLDEN_FILE_SHA256 = "7efacd222d6d8537baa59aa9847d38094ee26b705d9bae9bda93d1f57bf5db41"


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
    """An ``RPCK0001`` graph file, the layout before the ranked arrays, built
    the way ``save_knn_graph`` used to: one Python row per edge."""
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

    def test_saved_bytes_are_the_graph_arrays(self, tmp_path):
        """The file is the magic, ``(n, k)`` and the three ranked arrays,
        rebuilt here from the public rows: no sort, no edge columns."""
        graph = golden_graph()
        n, k = graph.num_vertices, graph.k
        save_knn_graph(tmp_path / "g.bin", graph)
        raw = (tmp_path / "g.bin").read_bytes()
        rows = [graph.ranked(vertex) for vertex in range(n)]
        neighbours = np.full((n, k), -1, dtype=np.int64)
        scores = np.full((n, k), -np.inf)
        for vertex, row in enumerate(rows):
            neighbours[vertex, :len(row)] = [nb for nb, _ in row]
            scores[vertex, :len(row)] = [score for _, score in row]
        counts = np.asarray([len(row) for row in rows], dtype=np.int64)
        assert raw == (b"RPCK0002" + np.asarray([n, k], dtype=np.int64).tobytes()
                       + counts.tobytes() + neighbours.tobytes() + scores.tobytes())
        assert len(raw) == 8 + 16 + 8 * n + 16 * n * k
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

    def test_damaged_files_still_raise(self, tmp_path):
        save_knn_graph(tmp_path / "g.bin", golden_graph())
        raw = (tmp_path / "g.bin").read_bytes()
        (tmp_path / "short.bin").write_bytes(raw[:-9])
        with pytest.raises(ValueError, match="truncated"):
            load_knn_graph(tmp_path / "short.bin")
        (tmp_path / "magic.bin").write_bytes(b"XXXXXXXX" + raw[8:])
        with pytest.raises(ValueError, match="bad magic"):
            load_knn_graph(tmp_path / "magic.bin")
        counts, neighbours, scores = _valid_arrays()
        neighbours[0, 0] = 7
        with pytest.raises(IndexError):
            load_knn_graph(_write_arrays(tmp_path / "range.bin", counts,
                                         neighbours, scores))

    def test_the_previous_layout_is_refused_and_named(self, tmp_path):
        with pytest.raises(ValueError, match=r"python -m repro migrate"):
            load_knn_graph(_write_file(tmp_path / "old.bin", 5, 2, [(0, 1, 0.5)]))


# -- the loader's checks -----------------------------------------------------------


def _valid_arrays():
    """Five rows, k = 3: full, tied, zero-signed, empty, under-full.  Row 1
    ranks ``-0.0`` before ``0.0`` by id, as the merge folds the zeros."""
    inf = np.inf
    counts = np.asarray([3, 2, 0, 3, 1], dtype=np.int64)
    neighbours = np.asarray([[1, 2, 3], [0, 4, -1], [-1, -1, -1],
                             [4, 0, 1], [3, -1, -1]], dtype=np.int64)
    scores = np.asarray([[0.9, 0.5, 0.5], [-0.0, 0.0, -inf], [-inf, -inf, -inf],
                         [0.8, 0.7, 0.6], [-inf, -inf, -inf]], dtype=np.float64)
    return counts, neighbours, scores


def _write_arrays(path, counts, neighbours, scores):
    n, k = neighbours.shape
    path.write_bytes(b"RPCK0002" + np.asarray([n, k], dtype=np.int64).tobytes()
                     + counts.tobytes() + neighbours.tobytes() + scores.tobytes())
    return path


_ROW_COUNTS, _NEIGHBOUR_ROWS, _SCORE_ROWS = 0, 1, 2

#: (what is wrong, edits of the valid arrays as (array, index, value), error)
_DAMAGE = [
    ("count above k", [(_ROW_COUNTS, 0, 4)], ValueError),
    ("count below zero", [(_ROW_COUNTS, 2, -1)], ValueError),
    ("unused neighbour not -1", [(_NEIGHBOUR_ROWS, (4, 1), 2)], ValueError),
    ("unused score not -inf", [(_SCORE_ROWS, (4, 2), 0.0)], ValueError),
    ("held neighbour at n", [(_NEIGHBOUR_ROWS, (0, 2), 5)], IndexError),
    ("held neighbour negative", [(_NEIGHBOUR_ROWS, (0, 2), -1)], IndexError),
    ("self loop", [(_NEIGHBOUR_ROWS, (0, 0), 0)], ValueError),
    ("neighbour repeated", [(_NEIGHBOUR_ROWS, (3, 2), 4)], ValueError),
    ("NaN score", [(_SCORE_ROWS, (0, 0), np.nan)], ValueError),
    ("scores out of rank", [(_SCORE_ROWS, (3, 1), 0.85)], ValueError),
    ("tie out of id order", [(_NEIGHBOUR_ROWS, (0, 1), 4)], ValueError),
    # 0.0 then -0.0 would be strictly ranked if the zeros were told apart
    ("zeros tied out of id order", [(_NEIGHBOUR_ROWS, 1, [4, 0, -1]),
                                    (_SCORE_ROWS, 1, [0.0, -0.0, -np.inf])],
     ValueError),
]


class TestLoaderChecks:
    def test_the_valid_arrays_load_bit_for_bit(self, tmp_path):
        arrays = _valid_arrays()
        loaded = load_knn_graph(_write_arrays(tmp_path / "g.bin", *arrays))
        assert loaded.ranked(1) == [(0, -0.0), (4, 0.0)]
        assert _bits(loaded.ranked(1)) == _bits([(0, -0.0), (4, 0.0)])
        assert loaded.ranked(4) == [(3, float("-inf"))]
        for got, expected in zip(loaded.ranked_arrays(), arrays):
            assert got.tobytes() == expected.tobytes()
        save_knn_graph(tmp_path / "again.bin", loaded)
        assert ((tmp_path / "again.bin").read_bytes()
                == (tmp_path / "g.bin").read_bytes())

    def test_a_length_other_than_the_header_implies(self, tmp_path):
        raw = _write_arrays(tmp_path / "g.bin", *_valid_arrays()).read_bytes()
        for name, damaged in (("long.bin", raw + bytes(8)), ("short.bin", raw[:-8]),
                              ("headless.bin", raw[:20])):
            with pytest.raises(ValueError, match="truncated or padded"):
                (tmp_path / name).write_bytes(damaged)
                load_knn_graph(tmp_path / name)

    @pytest.mark.parametrize("what,edits,error", _DAMAGE,
                             ids=[case[0] for case in _DAMAGE])
    def test_each_broken_invariant_is_rejected(self, what, edits, error, tmp_path):
        arrays = _valid_arrays()
        for array, index, value in edits:
            arrays[array][index] = value
        with pytest.raises(error):
            load_knn_graph(_write_arrays(tmp_path / "g.bin", *arrays))


# -- G(0): the random initial graph ---------------------------------------------


class TestRandomInitialGraph:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=2, max_value=40), data=st.data())
    def test_k_distinct_neighbours_ranked_with_zero_scores(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        counts, neighbours, scores = KNNGraph.random(n, k, seed).ranked_arrays()
        assert counts.dtype == neighbours.dtype == np.int64
        assert scores.dtype == np.float64
        assert (counts == k).all()
        assert ((neighbours >= 0) & (neighbours < n)).all()
        assert not (neighbours == np.arange(n)[:, None]).any()
        # every score is 0.0, so a ranked row is strictly ascending by id
        assert (np.diff(neighbours, axis=1) > 0).all()
        assert not scores.any()
        assert not np.signbit(scores).any()

    def test_the_same_seed_or_generator_state_gives_the_same_graph(self):
        n, k = 60, 7
        drawn = KNNGraph.random(n, k, seed=5)
        for again in (KNNGraph.random(n, k, seed=5),
                      KNNGraph.random(n, k, seed=np.random.default_rng(5))):
            assert again.edge_fingerprint() == drawn.edge_fingerprint()
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        a.integers(0, 10, size=3)
        b.integers(0, 10, size=3)
        first = KNNGraph.random(n, k, seed=a)
        assert KNNGraph.random(n, k, seed=b).edge_fingerprint() == first.edge_fingerprint()
        # a draw advances the generator it was handed
        assert KNNGraph.random(n, k, seed=a).edge_fingerprint() != first.edge_fingerprint()
        assert KNNGraph.random(n, k, seed=6).edge_fingerprint() != drawn.edge_fingerprint()

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_vertex_more_than_k_holds_every_other_vertex(self, k):
        n = k + 1
        for seed in range(5):
            _, neighbours, _ = KNNGraph.random(n, k, seed).ranked_arrays()
            expected = [[u for u in range(n) if u != v] for v in range(n)]
            assert neighbours.tolist() == expected

    @pytest.mark.parametrize("n, k", [(5, 5), (3, 7)])
    def test_k_must_stay_below_the_vertex_count(self, n, k):
        with pytest.raises(ValueError, match="must exceed k"):
            KNNGraph.random(n, k, seed=0)

    def test_every_ordered_pair_is_drawn_uniformly(self):
        """Over 3,000 seeds at n = 8, k = 3 each of the 56 ordered pairs is
        held with probability p = k / (n - 1).  A row draws k of N = n - 1
        vertices without replacement, so its N counts have covariance
        m·p·(1 - p)·N/(N - 1)·(I - J/N) over m draws, and
        sum((count - m·p)²) / (m·p·(1 - p)·N/(N - 1)) is chi-square with
        N - 1 degrees of freedom a row: 48 over the 8 rows.  Its 0.999
        quantile is 84.04.  Each count also stays within five standard
        deviations of m·p (the draw below reads 1,230–1,361 against 1,285.7
        and a statistic of 50.7)."""
        n, k, draws = 8, 3, 3000
        counts = np.zeros((n, n), dtype=np.int64)
        rows = np.repeat(np.arange(n), k)
        for seed in range(draws):
            _, neighbours, _ = KNNGraph.random(n, k, seed).ranked_arrays()
            np.add.at(counts, (rows, neighbours.ravel()), 1)
        assert not np.diagonal(counts).any()
        held = counts[~np.eye(n, dtype=bool)]
        p = k / (n - 1)
        expected, variance = draws * p, draws * p * (1 - p)
        assert np.abs(held - expected).max() < 5 * math.sqrt(variance)
        statistic = ((held - expected) ** 2).sum() / (variance * (n - 1) / (n - 2))
        assert statistic < 84.04


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
