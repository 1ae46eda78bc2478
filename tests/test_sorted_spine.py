"""The sorted-spine wall (PR 13).

``H``'s sorted key array is made once in phase 2 and everything after it is
aligned with it: partitions are sliced out of the CSR rows, buckets are
positions into the keys, phase 4 scores into one slab, the slab is merged
into ``G(t+1)`` as it lies and adopted as the next score cache.  Everything
here compares that against references that share no code with it: the
mask + ``lexsort`` partition builder and the dict-of-chunks hash table this
replaced (kept below, verbatim), the dict merge oracle of the graph array
wall, the general batch merge on a shuffled copy of the same candidates (also
where the merge's per-source selection sees scores tie only once truncated),
``H`` built with each chunk inserted alone, and engine observations computed
with the parent commit and committed here.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.iteration as iteration_module
import repro.graph.knn_graph as knn_graph_module
import repro.tuples.generator as generator_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import Phase4ScoreCache
from repro.graph.digraph import CSRDiGraph
from repro.graph.knn_graph import KNNGraph
from repro.partition.model import Partition, build_partitions
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.memory_manager import MemoryBudget
from repro.tuples.generator import generate_candidate_tuples, partition_bridge_tuples
from repro.tuples.hash_table import TupleHashTable
from legacy_graph import legacy_random_graph
from test_graph_knn_arrays import _SCORES, _bits, oracle_merge

# -- (a) partitions: CSR row slices against mask + lexsort + unique ------------


def _reference_partitions(graph, assignment, num_partitions):
    """``build_partitions`` as it was before PR 13, kept as the oracle."""
    edges = graph.edges_array()          # rows (src, dst) == (v, d) for out-edges
    partitions = []
    for pid in range(num_partitions):
        vertices = np.flatnonzero(assignment == pid).astype(np.int64)
        if len(edges):
            out_mask = assignment[edges[:, 0]] == pid
            in_mask = assignment[edges[:, 1]] == pid
            out_edges = edges[out_mask]                       # (v, d)
            in_edges = edges[in_mask][:, [0, 1]]              # (s, v)
        else:
            out_edges = np.empty((0, 2), dtype=np.int64)
            in_edges = np.empty((0, 2), dtype=np.int64)
        # sort out-edges by bridge v (column 0), in-edges by bridge v (column 1)
        if len(out_edges):
            out_edges = out_edges[np.lexsort((out_edges[:, 1], out_edges[:, 0]))]
        if len(in_edges):
            in_edges = in_edges[np.lexsort((in_edges[:, 0], in_edges[:, 1]))]
        n_in = len(np.unique(in_edges[:, 0])) if len(in_edges) else 0
        n_out = len(np.unique(out_edges[:, 1])) if len(out_edges) else 0
        partitions.append(Partition(
            pid=pid,
            vertices=vertices,
            in_edges=in_edges,
            out_edges=out_edges,
            num_unique_in_sources=n_in,
            num_unique_out_destinations=n_out,
        ))
    return partitions


@st.composite
def _partitioned_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    # up to 2n partitions: some stay empty, and m > n happens
    m = draw(st.integers(min_value=1, max_value=2 * n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    # sparse edge lists leave vertices without in- or out-edges
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    assignment = draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                               min_size=n, max_size=n))
    return (CSRDiGraph.from_edges(n, edges),
            np.asarray(assignment, dtype=np.int64), m)


class TestPartitionsFromCsrRows:
    @settings(max_examples=200, deadline=None)
    @given(_partitioned_graphs())
    def test_equals_mask_lexsort_unique(self, case):
        graph, assignment, m = case
        built = build_partitions(graph, assignment, m)
        expected = _reference_partitions(graph, assignment, m)
        assert len(built) == len(expected) == m
        for ours, theirs in zip(built, expected):
            assert ours.pid == theirs.pid
            for field in ("vertices", "in_edges", "out_edges"):
                mine, ref = getattr(ours, field), getattr(theirs, field)
                assert mine.dtype == ref.dtype and mine.shape == ref.shape
                np.testing.assert_array_equal(mine, ref)
            assert ours.num_unique_in_sources == theirs.num_unique_in_sources
            assert (ours.num_unique_out_destinations
                    == theirs.num_unique_out_destinations)

    def test_a_knn_graph_round_trips(self):
        graph = KNNGraph.random(300, 6, seed=11).to_csr()
        assignment = np.random.default_rng(3).integers(0, 7, size=300)
        for ours, theirs in zip(build_partitions(graph, assignment, 7),
                                _reference_partitions(graph, assignment, 7)):
            np.testing.assert_array_equal(ours.in_edges, theirs.in_edges)
            np.testing.assert_array_equal(ours.out_edges, theirs.out_edges)
            assert ours.locality_cost == theirs.locality_cost


# -- (b) the sorted merge -----------------------------------------------------


@st.composite
def _sorted_candidates(draw):
    """Sorted unique candidates, engine-shaped: the edges of a graph
    ``G(t)`` are candidates too (unless ``direct`` is off), each with a
    fresh score."""
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=n - 1)
    previous = KNNGraph(n, k)
    old = draw(st.lists(st.tuples(vertex, vertex, _SCORES), max_size=40))
    if old:
        previous.add_candidates_batch(*zip(*old))
    direct = draw(st.booleans())
    pairs = set(draw(st.lists(st.tuples(vertex, vertex), max_size=50)))
    if direct:
        pairs |= {(src, dst) for src, dst, _ in previous.edges()}
    batch = [(src, dst, draw(_SCORES)) for src, dst in sorted(pairs)]
    return n, k, batch


def _columns(batch):
    return [list(column) for column in zip(*batch)] or [[], [], []]


class _Spy:
    """Counts calls of the sorted merge and the rows that reach its exact
    ranking pass."""

    def __init__(self, monkeypatch):
        self.sorted_merges = 0
        self.rows_sorted = []
        merge = KNNGraph._merge_sorted
        rank = knn_graph_module._descending_score_argsort

        def counted_merge(graph, *args):
            self.sorted_merges += 1
            return merge(graph, *args)

        def counted_rank(scores):
            self.rows_sorted.append(len(scores))
            return rank(scores)

        monkeypatch.setattr(KNNGraph, "_merge_sorted", counted_merge)
        monkeypatch.setattr(knn_graph_module, "_descending_score_argsort",
                            counted_rank)


#: ``n - 1 = 2**19``: the packed key's source field is 20 bits wide, so the
#: selection drops the low 20 bits of every score key
_WIDE_N = (1 << 19) + 1


def _float_chain(base, steps, towards):
    chain = [base]
    for _ in range(steps):
        chain.append(float(np.nextafter(chain[-1], towards)))
    return chain


#: row bases: both zeros, both infinities, the two smallest subnormals and
#: a few ordinary values; a few ulps from a base, only the low key bits move
_BASES = [0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, 1.0, 5e-324, -5e-324]


@st.composite
def _truncation_ties(draw):
    """Sorted unique candidates on ``_WIDE_N`` vertices whose scores mostly
    tie once their keys lose their low 20 bits: each row draws from float
    chains a few ulps long around one base (or repeats the base), and its
    size is often exactly K or K + 1."""
    k = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=_WIDE_N - 1)
    sources = draw(st.lists(vertex, min_size=1, max_size=4, unique=True))
    batch = []
    for src in sorted(sources):
        size = draw(st.one_of(st.sampled_from([k, k + 1]),
                              st.integers(min_value=0, max_value=3 * k + 3)))
        destinations = draw(st.lists(vertex.filter(lambda d, s=src: d != s),
                                     min_size=size, max_size=size, unique=True))
        base = draw(st.sampled_from(_BASES))
        palette = (_float_chain(base, 3, np.inf) + _float_chain(base, 3, -np.inf)
                   + [-base, 0.0, -0.0])
        score = st.just(base) if draw(st.booleans()) else st.sampled_from(palette)
        batch += [(src, dst, draw(score)) for dst in sorted(destinations)]
    return _WIDE_N, k, batch


def _assert_touched_rows_equal(graph, rows):
    """The graph's rows equal ``rows``, which maps only the sources the
    oracle touched: every other row is empty, so a graph too wide to walk
    is checked too."""
    for vertex, row in rows.items():
        expected = sorted(row.items(), key=lambda e: (-e[1], e[0]))
        assert _bits(graph.ranked(vertex)) == _bits(expected)
    assert graph.num_edges == sum(len(row) for row in rows.values())


class TestSortedMerge:
    @settings(max_examples=450, deadline=None)
    @given(st.one_of(_sorted_candidates(), _truncation_ties()),
           st.randoms(use_true_random=False))
    def test_equals_dict_oracle_and_batch_merge(self, case, shuffler):
        """The sorted merge equals the dict oracle and the batch merge on a
        shuffled copy, bit for bit, also where the selection's truncated
        keys tie and only the exact pass can rank."""
        n, k, batch = case
        rows = collections.defaultdict(dict)
        expected_changed = oracle_merge(rows, k, batch)

        graph = KNNGraph(n, k)
        changed = graph.add_candidates_sharded(*_columns(batch), assume_unique=True)
        assert changed == expected_changed
        _assert_touched_rows_equal(graph, rows)

        shuffled = list(batch)
        shuffler.shuffle(shuffled)
        general = KNNGraph(n, k)
        assert general.add_candidates_batch(*_columns(shuffled)) == changed
        _assert_touched_rows_equal(general, rows)
        assert graph.edge_fingerprint() == general.edge_fingerprint()

    @pytest.mark.parametrize("scores, survivors", [
        # exactly K: the K-th best is the row's last, every candidate survives
        ([0.5, 0.25, 0.75], 3),
        # K + 1, every score a few ulps from the next: one truncated key
        (_float_chain(0.5, 3, np.inf), 4),
        # all equal
        ([0.5] * 6, 6),
        # the zeros at the K-th place tie 5e-324 once truncated, and rank
        # alike; -5e-324, the next float below them, does not survive
        ([1.0, 5e-324, -0.0, 0.0, -5e-324], 4),
        # +inf ranks first, and the three -inf tie at the K-th place
        ([np.inf, -np.inf, -np.inf, -np.inf, 0.5], 5),
    ], ids=["exactly-k", "k-plus-one-ulp-chain", "all-equal", "both-zeros",
            "infinities"])
    def test_named_boundaries_on_a_wide_graph(self, scores, survivors,
                                              monkeypatch):
        """A row of the wide graph against the dict oracle, with the count
        the selection hands to the exact pass worked out by hand (K = 3)."""
        spy = _Spy(monkeypatch)
        src = _WIDE_N - 1
        batch = [(src, dst, score) for dst, score in
                 zip(range(1, 2 * len(scores), 2), scores)]
        rows = collections.defaultdict(dict)
        expected_changed = oracle_merge(rows, 3, batch)
        graph = KNNGraph(_WIDE_N, 3)
        assert graph.add_candidates_sharded(*_columns(batch)) == expected_changed
        _assert_touched_rows_equal(graph, rows)
        assert spy.rows_sorted == [survivors]

    def test_sorted_candidates_take_the_sorted_merge(self, monkeypatch):
        spy = _Spy(monkeypatch)
        graph = KNNGraph(6, 2)
        graph.add_candidates_sharded([0, 0, 3], [1, 2, 0], [0.5, 0.25, 1.0])
        assert spy.sorted_merges == 1
        # rows 0 and 3 now hold neighbours; 4 and 5 are still empty
        graph.add_candidates_sharded([4, 5], [1, 1], [0.5, 0.5])
        assert spy.sorted_merges == 2

    def test_unsorted_or_occupied_falls_back_to_the_batch_merge(self, monkeypatch):
        """The choice is read off the input, so neither is an error: both
        get the general merge, and its result."""
        spy = _Spy(monkeypatch)
        for sources, destinations in (([0, 0], [2, 1]),      # keys decrease
                                      ([0, 0], [1, 1]),      # a key repeats
                                      ([3, 0], [1, 2])):     # sources decrease
            graph = KNNGraph(6, 2)
            graph.add_candidates_sharded(sources, destinations, [0.5, 0.75])
            oracle = KNNGraph(6, 2)
            oracle.add_candidates_batch(sources, destinations, [0.5, 0.75])
            assert graph.edge_fingerprint() == oracle.edge_fingerprint()
        occupied = KNNGraph(6, 2)
        occupied.add_candidates_batch([0], [5], [0.9])
        occupied.add_candidates_sharded([0, 0, 1], [1, 2, 0], [0.5, 0.95, 0.1])
        assert occupied.ranked(0) == [(2, 0.95), (5, 0.9)]
        assert occupied.ranked(1) == [(0, 0.1)]
        assert spy.sorted_merges == 0

    def test_rejects_nan_and_out_of_range(self):
        graph = KNNGraph(4, 2)
        with pytest.raises(ValueError):
            graph.add_candidates_sharded([0, 1], [1, 2], [0.5, float("nan")])
        with pytest.raises(IndexError):
            graph.add_candidates_sharded([0, 1], [1, 4], [0.5, 0.5])
        with pytest.raises(IndexError):
            graph.add_candidates_sharded([-1, 1], [1, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            graph.add_candidates_sharded([0, 1], [1, 2], [0.5])
        assert graph.num_edges == 0

    def test_self_loops_are_dropped(self):
        graph = KNNGraph(4, 2)
        assert graph.add_candidates_sharded([0, 0, 1], [0, 1, 1],
                                            [1.0, 0.5, 1.0]) == 1
        assert graph.ranked(0) == [(1, 0.5)] and graph.ranked(1) == []

    # n = 10: a 4-bit source field, so scores more than 16 ulps apart never
    # tie in the selection and the survivor counts below are exact

    def test_kth_best_boundary(self, monkeypatch):
        """The threshold is the row's K-th best score.  A candidate equal
        to it still competes on the destination id; only a strictly lower
        one is dropped unranked."""
        spy = _Spy(monkeypatch)
        graph = KNNGraph(10, 2)
        # 4 -> 0.9, 5 -> 0.5 (the K-th best); 3 ties it with a smaller id
        # and enters, 6 ties it with a larger id and is ranked out, 7 and 8
        # are strictly below and never reach the exact pass
        graph.add_candidates_sharded(
            [0, 0, 0, 0, 0, 0], [3, 4, 5, 6, 7, 8],
            [0.5, 0.9, 0.5, 0.5, 0.4999, -1.0])
        assert graph.ranked(0) == [(4, 0.9), (3, 0.5)]
        assert spy.rows_sorted == [4]

    def test_both_zeros_tie_at_the_kth_best(self, monkeypatch):
        spy = _Spy(monkeypatch)
        graph = KNNGraph(10, 2)
        graph.add_candidates_sharded([0, 0, 0, 0], [3, 4, 5, 6],
                                     [-0.0, 0.0, -0.0, -0.25])
        assert graph.neighbors(0) == [3, 4]
        assert spy.rows_sorted == [3]

    def test_every_row_has_its_own_threshold(self, monkeypatch):
        """Row 0's K-th best is 0.2, row 1's is 0.2 too but reached through
        other candidates: each drops its own 0.1, four survive of six."""
        spy = _Spy(monkeypatch)
        graph = KNNGraph(10, 2)
        graph.add_candidates_sharded(
            [0, 0, 0, 1, 1, 1], [4, 6, 7, 2, 3, 4],
            [0.9, 0.1, 0.2, 0.8, 0.1, 0.2])
        assert graph.ranked(0) == [(4, 0.9), (7, 0.2)]
        assert graph.ranked(1) == [(2, 0.8), (4, 0.2)]
        assert spy.rows_sorted == [4]

    def test_a_row_of_exactly_k_keeps_every_candidate(self, monkeypatch):
        """K candidates all rank: the row's K-th best is its last, so
        nothing is selected away."""
        spy = _Spy(monkeypatch)
        graph = KNNGraph(10, 3)
        graph.add_candidates_sharded([0, 0, 0], [4, 5, 6], [0.9, 0.8, 0.1])
        assert graph.neighbors(0) == [4, 5, 6]
        assert spy.rows_sorted == [3]


# -- (c) the hash table: one key array against the dict of chunks -------------


class _ChunkTable:
    """``TupleHashTable`` as it was before PR 13 (buckets are lists of key
    chunks, in insertion order), reduced to what the comparison reads."""

    def __init__(self, num_vertices, assignment):
        self._num_vertices = num_vertices
        self._assignment = np.asarray(assignment, dtype=np.int64)
        self._num_parts = int(self._assignment.max()) + 1
        self._keys = np.empty(0, dtype=np.int64)
        self._pending = set()
        self._buckets = {}

    def _contains_key(self, key):
        if key in self._pending:
            return True
        position = np.searchsorted(self._keys, key)
        return position < len(self._keys) and self._keys[position] == key

    def _consolidate(self):
        if self._pending:
            pending = np.fromiter(self._pending, dtype=np.int64,
                                  count=len(self._pending))
            self._keys = np.unique(np.concatenate([self._keys, pending]))
            self._pending.clear()

    def add(self, source, destination):
        if source == destination:
            return False
        key = source * self._num_vertices + destination
        if self._contains_key(key):
            return False
        self._pending.add(key)
        pair = (int(self._assignment[source]), int(self._assignment[destination]))
        self._buckets.setdefault(pair, []).append(key)
        return True

    def add_array(self, pairs):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if len(pairs) == 0:
            return 0
        keys = np.unique(pairs[:, 0] * self._num_vertices + pairs[:, 1])
        self._consolidate()
        positions = np.searchsorted(self._keys, keys)
        positions[positions >= len(self._keys)] = max(0, len(self._keys) - 1)
        if len(self._keys):
            fresh = keys[self._keys[positions] != keys]
        else:
            fresh = keys
        if len(fresh) == 0:
            return 0
        self._keys = np.insert(self._keys, np.searchsorted(self._keys, fresh), fresh)

        sources = fresh // self._num_vertices
        destinations = fresh % self._num_vertices
        codes = (self._assignment[sources] * self._num_parts
                 + self._assignment[destinations])
        order = np.argsort(codes, kind="stable")
        sorted_keys = fresh[order]
        sorted_codes = codes[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1])
        unique_codes = sorted_codes[starts]
        for code, chunk in zip(unique_codes.tolist(),
                               np.split(sorted_keys, starts[1:])):
            pair = (code // self._num_parts, code % self._num_parts)
            self._buckets.setdefault(pair, []).append(chunk)
        return len(fresh)

    def keys(self):
        self._consolidate()
        return self._keys

    def partition_pairs(self):
        return sorted(self._buckets)

    def bucket_sizes(self):
        return {pair: sum(len(chunk) if isinstance(chunk, np.ndarray) else 1
                          for chunk in chunks)
                for pair, chunks in self._buckets.items()}

    def tuples_for(self, source_partition, destination_partition):
        chunks = self._buckets.get((source_partition, destination_partition), [])
        keys = [key for chunk in chunks
                for key in (chunk.tolist() if isinstance(chunk, np.ndarray)
                            else [chunk])]
        return {(key // self._num_vertices, key % self._num_vertices)
                for key in keys}


@st.composite
def _insertions(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=1, max_value=5))
    vertex = st.integers(min_value=0, max_value=n - 1)
    assignment = draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                               min_size=n, max_size=n))
    scalar = st.tuples(st.just("add"), vertex, vertex)
    bulk = st.tuples(st.just("add_array"),
                     st.lists(st.tuples(vertex, vertex), max_size=30))
    return n, assignment, draw(st.lists(st.one_of(scalar, bulk), max_size=12))


class TestOneKeyArray:
    @settings(max_examples=200, deadline=None)
    @given(_insertions())
    def test_interleaved_inserts_match_the_dict_of_chunks(self, case):
        n, assignment, operations = case
        table = TupleHashTable(n, np.asarray(assignment, dtype=np.int64))
        oracle = _ChunkTable(n, assignment)
        for operation in operations:
            if operation[0] == "add":
                assert (table.add(*operation[1:])
                        == oracle.add(*operation[1:]))
            else:
                pairs = np.asarray(operation[1], dtype=np.int64).reshape(-1, 2)
                assert table.add_array(pairs) == oracle.add_array(pairs)
            assert len(table) == len(oracle.keys())
        keys = table.keys
        np.testing.assert_array_equal(keys, oracle.keys())
        assert table.partition_pairs() == oracle.partition_pairs()
        assert table.bucket_sizes() == oracle.bucket_sizes()
        covered = []
        for pair in table.partition_pairs():
            rows = table.tuples_for(*pair)
            assert {tuple(row) for row in rows.tolist()} == oracle.tuples_for(*pair)
            positions = table.positions_for(*pair)
            np.testing.assert_array_equal(rows[:, 0] * n + rows[:, 1],
                                          keys[positions])
            # ascending positions: a bucket's rows come back in key order
            assert (np.diff(positions) > 0).all()
            covered.append(positions)
        # the buckets partition range(len(H)) exactly
        covered = np.concatenate(covered) if covered else np.empty(0, np.int64)
        np.testing.assert_array_equal(np.sort(covered), np.arange(len(table)))
        assert len(table.positions_for(0, 99)) == 0
        assert table.tuples_for(0, 99).shape == (0, 2)

    def test_an_insert_after_a_bucket_query_is_indexed(self):
        table = TupleHashTable(6, np.asarray([0, 0, 0, 1, 1, 1]))
        table.add_array(np.asarray([[0, 3], [4, 1]]))
        assert table.bucket_sizes() == {(0, 1): 1, (1, 0): 1}
        table.add(1, 5)
        table.add_array(np.asarray([[0, 1]]))
        assert table.bucket_sizes() == {(0, 0): 1, (0, 1): 2, (1, 0): 1}
        assert table.tuples_for(0, 1).tolist() == [[0, 3], [1, 5]]
        sources, destinations = table.endpoints(table.positions_for(1, 0))
        assert (sources.tolist(), destinations.tolist()) == ([4], [1])


class TestOneDedupSort:
    """Phase 2 puts ``G(t)``'s direct edges in the bridge pairs' buffer, so
    ``H`` is usually built by one dedup sort.  The flush threshold decides
    only how the inserts are cut: keys, multiplicities and the bucket index
    are the same whether every chunk is inserted alone (the bridge pairs,
    then the direct edges on their own), the direct edges alone after one
    bridge flush, or everything at once."""

    @pytest.mark.parametrize("max_pairs", [None, 6], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("direct", [True, False], ids=["direct", "bridges-only"])
    def test_the_flush_threshold_moves_no_tuple(self, direct, max_pairs,
                                                monkeypatch):
        graph = KNNGraph.random(300, 6, seed=5).to_csr()
        assignment = np.random.default_rng(8).integers(0, 5, size=300)
        partitions = build_partitions(graph, assignment, 5)
        bridged = [len(partition_bridge_tuples(p, max_pairs_per_bridge=max_pairs))
                   for p in partitions]
        inserts = []
        add_array = TupleHashTable.add_array

        def counted(table, pairs):
            inserts.append(len(pairs))
            return add_array(table, pairs)

        monkeypatch.setattr(TupleHashTable, "add_array", counted)

        def build(threshold):
            inserts.clear()
            monkeypatch.setattr(generator_module, "_BRIDGE_FLUSH_ROWS", threshold)
            table = generate_candidate_tuples(graph, partitions, assignment,
                                              include_direct_edges=direct,
                                              max_pairs_per_bridge=max_pairs)
            order, spans = table.bucket_index()
            return (table.keys.copy(), table.multiplicities.copy(),
                    order.copy(), dict(spans), list(inserts))

        edges = [graph.num_edges] if direct else []
        keys, multiplicities, order, spans, once = build(1 << 20)
        assert once == [sum(bridged) + sum(edges)]
        for threshold, cut in ((1, [b for b in bridged if b] + edges),
                               (sum(bridged) + 1, [sum(bridged)] + edges)):
            other = build(threshold)
            assert other[4] == cut
            np.testing.assert_array_equal(other[0], keys)
            np.testing.assert_array_equal(other[1], multiplicities)
            np.testing.assert_array_equal(other[2], order)
            assert other[3] == spans
        assert (multiplicities > 1).any()


# -- (d) the engine, against observations made with the parent commit ---------

GOLDEN_USERS = 400
GOLDEN_ITEMS = 300
GOLDEN_DIM = 8
#: churn-free iterations first, so the graph has converged and dirty
#: scheduling has steps to skip by the time the churn starts
GOLDEN_WARMUP = 6
GOLDEN_CHURNED = 5


def _golden_profiles(kind):
    if kind == "dense":
        return generate_dense_profiles(GOLDEN_USERS, dim=GOLDEN_DIM,
                                       num_communities=4, seed=7)
    return generate_sparse_profiles(GOLDEN_USERS, GOLDEN_ITEMS,
                                    items_per_user=12, num_communities=4,
                                    seed=7)


def _golden_feed(kind, profiles):
    """Eight changed users an iteration, all inside the first partition."""
    rng = np.random.default_rng(29)

    def feed(iteration):
        if iteration < GOLDEN_WARMUP:
            return []
        users = rng.choice(50, size=8, replace=False)
        if kind == "dense":
            return [ProfileChange(user=int(u), kind="set",
                                  vector=profiles.matrix[u]
                                  + rng.normal(0.0, 0.01, GOLDEN_DIM))
                    for u in users]
        return [ProfileChange(user=int(u), kind="add",
                              item=int(rng.integers(0, GOLDEN_ITEMS)))
                for u in users]

    return feed


def _observe(kind, dirty, full_schedule, budget=None):
    """``dirty=False`` runs the full schedule: every step classified as
    executed."""
    config = EngineConfig(k=5, num_partitions=6, heuristic="degree-low-high",
                          seed=17, memory_budget_bytes=budget)
    profiles = _golden_profiles(kind)
    # the goldens were recorded on the per-vertex G(0) draw of this seed
    initial = legacy_random_graph(GOLDEN_USERS, config.k, config.seed)
    with full_schedule(not dirty), KNNEngine(profiles, config,
                                             initial_graph=initial) as engine:
        run = engine.run(num_iterations=GOLDEN_WARMUP + GOLDEN_CHURNED,
                         profile_change_feed=_golden_feed(kind, profiles))
        digest = hashlib.sha256()
        for path in sorted(engine.profile_store.base_dir.glob("*.bin")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    rows = [(r.graph.edge_fingerprint()[:16], r.similarity_evaluations,
             r.reused_scores, r.steps_skipped, r.load_unload_operations,
             r.io_stats.bytes_read, r.io_stats.partition_loads,
             r.io_stats.partition_unloads, r.schedule.num_steps)
            for r in run.iterations[GOLDEN_WARMUP:]]
    rebuilt = [r.candidates_rebuilt for r in run.iterations]
    return rows, digest.hexdigest()[:16], rebuilt


#: Per churned iteration: (edge_fingerprint()[:16], similarity_evaluations,
#: reused_scores), the same for every schedule and backend.  Computed at
#: commit d582e34 (PR 12), where all 24 configurations agreed on them.
_GOLDEN_SCORED = {
    "dense": [("ee2478de738b1209", 102, 6574), ("e747722d86a6cc9f", 253, 6408),
              ("860cb0bb4d5c6e0b", 343, 6301), ("d809567ec28f6c1d", 321, 6326),
              ("04d3a9f938780b26", 350, 6305)],
    "sparse": [("041a88f21bfc9df7", 319, 7496), ("253a1887abf578d6", 552, 7286),
               ("081fb7fb8dbd00da", 477, 7280), ("0f2ce080791d18dd", 760, 6980),
               ("03f8f6ee7ecfc198", 1053, 6718)],
}
#: sha256[:16] over the names and bytes of the store's ``*.bin`` files.
_GOLDEN_PROFILES = {"dense": "a84aabaa5f105dbc", "sparse": "e177cf64dc22db4b"}
#: Per churned iteration: (steps_skipped, load_unload_operations), by
#: (kind, dirty, False) — the third field keyed the retired wave switch's
#: rows, kept so these stay as recorded; the same for every backend.
#: ``dirty`` is False for the full schedule, recorded when a config knob
#: turned dirty scheduling off and now reached by classifying every step as
#: executed.  The dense dirty row was re-recorded when dirty steps with a
#: small residue began to gather: its second and fourth iterations gather
#: three and one more steps (15 → 18, 15 → 16 skipped).
_GOLDEN_SCHEDULE = {
    ("dense", True, False): [(21, 0), (18, 6), (15, 12), (16, 10), (15, 12)],
    ("dense", False, False): [(0, 38)] * 5,
    ("sparse", True, False): [(21, 0), (15, 12), (15, 12), (15, 12), (10, 22)],
    ("sparse", False, False): [(0, 38)] * 5,
}
#: Per churned iteration: (io_stats.bytes_read, partition loads, partition
#: unloads, schedule.num_steps), by (kind, dirty, False) as above;
#: the same for every backend.  Computed at commit 6beeaab (PR 14), before
#: phase 4's two loops and two pools became one loop over one seam; the
#: dense dirty row re-recorded with the _GOLDEN_SCHEDULE row above.
_GOLDEN_IO = {
    ("dense", True, False): [(12384, 0, 0, 0), (55080, 3, 3, 3),
                             (97632, 6, 6, 6), (84952, 5, 5, 5),
                             (97776, 6, 6, 6)],
    ("dense", False, False): [(304280, 19, 19, 21), (275440, 19, 19, 21),
                              (275488, 19, 19, 21), (289904, 19, 19, 21),
                              (280208, 19, 19, 21)],
    ("sparse", True, False): [(44064, 0, 0, 0), (118136, 6, 6, 6),
                              (127464, 6, 6, 6), (128632, 6, 6, 6),
                              (214064, 11, 11, 11)],
    ("sparse", False, False): [(317136, 19, 19, 21), (317208, 19, 19, 21),
                               (319048, 19, 19, 21), (320840, 19, 19, 21),
                               (324712, 19, 19, 21)],
}
#: The most bytes the partition cache holds at once over a golden run, by
#: kind: the two largest residencies its walk reaches, on either schedule.
_GOLDEN_PEAK = {"dense": 32400.0, "sparse": 44688.0}


class TestEngineGoldens:
    @pytest.mark.parametrize("dirty", [True, False], ids=["dirty", "full"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_matches_the_parent_commit(self, kind, dirty, monkeypatch,
                                       full_schedule):
        # the goldens were recorded before phase 2 could advance H by the
        # edge delta: a spy proves the churned iterations took that path,
        # the unedited goldens that it changed nothing
        advanced = []
        advance = Phase4ScoreCache.advance

        def spied(carried, *args, **kwargs):
            result = advance(carried, *args, **kwargs)
            advanced.append(result is not None)
            return result

        monkeypatch.setattr(Phase4ScoreCache, "advance", spied)
        # ... and before the partition files became a cost model: the
        # partitions are built only for the bridge scan of a rebuild.  Every
        # iteration but the first has asked ``advance`` by then, so the
        # answers so far number the iteration a build happens in.
        built_in = []

        def spied_build(*args, **kwargs):
            built_in.append(len(advanced))
            return build_partitions(*args, **kwargs)

        monkeypatch.setattr(iteration_module, "build_partitions", spied_build)
        rows, profile_digest, rebuilt = _observe(kind, dirty, full_schedule)
        assert [row[:3] for row in rows] == _GOLDEN_SCORED[kind]
        assert [row[3:5] for row in rows] == _GOLDEN_SCHEDULE[kind, dirty, False]
        assert [row[5:] for row in rows] == _GOLDEN_IO[kind, dirty, False]
        assert profile_digest == _GOLDEN_PROFILES[kind]
        # every iteration but the cold first asked; what the engine reports
        # is what ran, and most of the churn ran on the delta path
        assert [not flag for flag in rebuilt[1:]] == advanced
        assert built_in == [i for i, flag in enumerate(rebuilt) if flag]
        assert rebuilt[GOLDEN_WARMUP:].count(False) >= GOLDEN_CHURNED - 1

    @pytest.mark.parametrize("dirty", [True, False], ids=["dirty", "full"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_a_cache_capped_at_its_peak_changes_no_golden(
            self, kind, dirty, monkeypatch, full_schedule):
        """``memory_budget_bytes`` caps the partition cache and does nothing
        else: capped at exactly the peak the walk reaches, the run fits and
        every golden above is the uncapped run's."""
        peaks = []
        allocate = MemoryBudget.allocate

        def spied(budget, num_bytes):
            allocate(budget, num_bytes)
            peaks.append(budget.peak_bytes)

        monkeypatch.setattr(MemoryBudget, "allocate", spied)
        rows, profile_digest, _ = _observe(kind, dirty, full_schedule,
                                           budget=_GOLDEN_PEAK[kind])
        assert max(peaks) == _GOLDEN_PEAK[kind]
        assert [row[:3] for row in rows] == _GOLDEN_SCORED[kind]
        assert [row[3:5] for row in rows] == _GOLDEN_SCHEDULE[kind, dirty, False]
        assert [row[5:] for row in rows] == _GOLDEN_IO[kind, dirty, False]
        assert profile_digest == _GOLDEN_PROFILES[kind]
