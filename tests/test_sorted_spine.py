"""The sorted-spine wall (PR 13).

``H``'s sorted key array is made once in phase 2 and everything after it is
aligned with it: partitions are sliced out of the CSR rows, buckets are
positions into the keys, phase 4 scores into one slab, the slab is merged
into ``G(t+1)`` as it lies and adopted as the next score cache.  Everything
here compares that against references that share no code with it: the
mask + ``lexsort`` partition builder and the dict-of-chunks hash table this
replaced (kept below, verbatim), the dict merge oracle of the graph array
wall, the general batch merge on a shuffled copy of the same candidates,
and engine observations computed with the parent commit and committed here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.iteration as iteration_module
import repro.graph.knn_graph as knn_graph_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import fork_available
from repro.graph.digraph import CSRDiGraph
from repro.graph.knn_graph import KNNGraph
from repro.partition.model import Partition, build_partitions
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.tuples.delta import CarriedCandidates
from repro.tuples.hash_table import TupleHashTable
from test_graph_knn_arrays import _SCORES, _assert_rows_equal, oracle_merge

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
    """A hint graph ``G(t)`` and sorted unique candidates, engine-shaped:
    the hint's edges are candidates too (unless ``direct`` is off), each
    with a fresh score."""
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=n - 1)
    hint = KNNGraph(n, k)
    old = draw(st.lists(st.tuples(vertex, vertex, _SCORES), max_size=40))
    if old:
        hint.add_candidates_batch(*zip(*old))
    direct = draw(st.booleans())
    pairs = set(draw(st.lists(st.tuples(vertex, vertex), max_size=50)))
    if direct:
        pairs |= {(src, dst) for src, dst, _ in hint.edges()}
    batch = [(src, dst, draw(_SCORES)) for src, dst in sorted(pairs)]
    return n, k, hint, batch


def _columns(batch):
    return [list(column) for column in zip(*batch)] or [[], [], []]


class _Spy:
    """Counts calls of the sorted merge and the rows that reach its sort."""

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


class TestSortedMerge:
    @settings(max_examples=300, deadline=None)
    @given(_sorted_candidates(), st.integers(min_value=1, max_value=3),
           st.booleans(), st.randoms(use_true_random=False))
    def test_equals_dict_oracle_and_batch_merge(self, case, num_shards,
                                                with_hint, shuffler):
        n, k, hint, batch = case
        rows = [{} for _ in range(n)]
        expected_changed = oracle_merge(rows, k, batch)

        graph = KNNGraph(n, k)
        changed = graph.add_candidates_sharded(
            *_columns(batch), num_shards=num_shards, assume_unique=True,
            hint=hint if with_hint else None)
        assert changed == expected_changed
        _assert_rows_equal(graph, rows)

        shuffled = list(batch)
        shuffler.shuffle(shuffled)
        general = KNNGraph(n, k)
        assert general.add_candidates_batch(*_columns(shuffled)) == changed
        _assert_rows_equal(general, rows)
        assert graph.edge_fingerprint() == general.edge_fingerprint()

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

    def _hint(self):
        hint = KNNGraph(10, 2)
        hint.add_candidates_batch([0, 0, 1], [4, 5, 2], [0.7, 0.6, 0.3])
        return hint      # row 0 is full, row 1 is not

    def test_floor_boundary(self, monkeypatch):
        """The floor is the weakest *fresh* score of the hint row's K
        neighbours.  A candidate equal to it still competes on the
        destination id; only a strictly lower one is dropped unsorted."""
        hint, spy = self._hint(), _Spy(monkeypatch)
        graph = KNNGraph(10, 2)
        # fresh scores: 4 -> 0.9, 5 -> 0.5 (floor); 3 ties the floor with a
        # smaller id and enters, 6 ties it with a larger id and is ranked
        # out, 7 and 8 are strictly below and never reach the sort
        graph.add_candidates_sharded(
            [0, 0, 0, 0, 0, 0], [3, 4, 5, 6, 7, 8],
            [0.5, 0.9, 0.5, 0.5, 0.4999, -1.0], hint=hint)
        assert graph.ranked(0) == [(4, 0.9), (3, 0.5)]
        assert spy.rows_sorted == [4]

    def test_both_zeros_tie_at_the_floor(self, monkeypatch):
        hint, spy = self._hint(), _Spy(monkeypatch)
        graph = KNNGraph(10, 2)
        graph.add_candidates_sharded([0, 0, 0, 0], [3, 4, 5, 6],
                                     [-0.0, 0.0, -0.0, -0.25], hint=hint)
        assert graph.neighbors(0) == [3, 4]
        assert spy.rows_sorted == [3]

    def test_no_floor_without_all_k_hint_neighbours(self, monkeypatch):
        """``include_direct_edges=False``: the hint's edges need not be
        candidates.  A row missing one, or an under-full hint row, has no
        floor — every candidate is ranked."""
        hint, spy = self._hint(), _Spy(monkeypatch)
        graph = KNNGraph(10, 2)
        graph.add_candidates_sharded(
            [0, 0, 0, 1, 1, 1], [4, 6, 7, 2, 3, 4],     # (0, 5) is absent
            [0.9, 0.1, 0.2, 0.8, 0.1, 0.2], hint=hint)
        assert graph.ranked(0) == [(4, 0.9), (7, 0.2)]
        assert graph.ranked(1) == [(2, 0.8), (4, 0.2)]
        assert spy.rows_sorted == [6]

    def test_a_narrower_hint_is_ignored(self, monkeypatch):
        """A full row of a k=2 hint names two candidates, not the three a
        k=3 row needs below its floor."""
        hint, spy = self._hint(), _Spy(monkeypatch)
        graph = KNNGraph(10, 3)
        graph.add_candidates_sharded([0, 0, 0], [4, 5, 6], [0.9, 0.8, 0.1],
                                     hint=hint)
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


def _observe(kind, dirty, shard, backend):
    overrides = {"backend": backend}
    if backend == "thread":
        overrides["num_workers"] = 3
    elif backend == "process":
        overrides["num_workers"] = 2
    config = EngineConfig(k=5, num_partitions=6, heuristic="degree-low-high",
                          seed=17, dirty_scheduling=dirty, shard_parallel=shard,
                          **overrides)
    profiles = _golden_profiles(kind)
    with KNNEngine(profiles, config) as engine:
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
#: (kind, dirty_scheduling, shard_parallel); the same for every backend.
_GOLDEN_SCHEDULE = {
    ("dense", True, False): [(21, 0), (15, 12), (15, 12), (15, 12), (15, 12)],
    ("dense", True, True): [(21, 0), (15, 22), (15, 22), (15, 22), (15, 22)],
    ("dense", False, False): [(0, 38)] * 5,
    ("dense", False, True): [(0, 72), (0, 40), (0, 40), (0, 58), (0, 44)],
    ("sparse", True, False): [(21, 0), (15, 12), (15, 12), (15, 12), (10, 22)],
    ("sparse", True, True): [(21, 0), (15, 22), (15, 22), (15, 22), (10, 40)],
    ("sparse", False, False): [(0, 38)] * 5,
    ("sparse", False, True): [(0, 72), (0, 62), (0, 72), (0, 72), (0, 72)],
}
#: Per churned iteration: (io_stats.bytes_read, partition loads, partition
#: unloads, schedule.num_steps), by (kind, dirty_scheduling, shard_parallel);
#: the same for every backend.  Computed at commit 6beeaab (PR 14), before
#: phase 4's two loops and two pools became one loop over one seam.
_GOLDEN_IO = {
    ("dense", True, False): [(12384, 0, 0, 0), (97488, 6, 6, 6),
                             (97632, 6, 6, 6), (98640, 6, 6, 6),
                             (97776, 6, 6, 6)],
    ("dense", True, True): [(12384, 0, 0, 0), (54072, 11, 11, 6),
                            (54216, 11, 11, 6), (55224, 11, 11, 6),
                            (54360, 11, 11, 6)],
    ("dense", False, False): [(304280, 19, 19, 21), (275440, 19, 19, 21),
                              (275488, 19, 19, 21), (289904, 19, 19, 21),
                              (280208, 19, 19, 21)],
    ("dense", False, True): [(172800, 36, 36, 21), (96192, 20, 20, 11),
                             (96120, 20, 20, 11), (139320, 29, 29, 17),
                             (105696, 22, 22, 12)],
    ("sparse", True, False): [(44064, 0, 0, 0), (118136, 6, 6, 6),
                              (127464, 6, 6, 6), (128632, 6, 6, 6),
                              (214064, 11, 11, 11)],
    ("sparse", True, True): [(44064, 0, 0, 0), (85760, 11, 11, 6),
                             (95408, 11, 11, 6), (96896, 11, 11, 6),
                             (159736, 20, 20, 11)],
    ("sparse", False, False): [(317136, 19, 19, 21), (317208, 19, 19, 21),
                               (319048, 19, 19, 21), (320840, 19, 19, 21),
                               (324712, 19, 19, 21)],
    ("sparse", False, True): [(249888, 36, 36, 21), (215656, 31, 31, 17),
                              (250608, 36, 36, 21), (250992, 36, 36, 21),
                              (251376, 36, 36, 21)],
}


class TestEngineGoldens:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("shard", [False, True], ids=["steps", "waves"])
    @pytest.mark.parametrize("dirty", [True, False], ids=["dirty", "full"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_matches_the_parent_commit(self, kind, dirty, shard, backend,
                                       monkeypatch):
        assert fork_available() or backend != "process", (
            "the process backend needs fork; this wall does not skip")
        # the goldens were recorded before phase 2 could advance H by the
        # edge delta: a spy proves the churned iterations took that path,
        # the unedited goldens that it changed nothing
        advanced = []
        advance = CarriedCandidates.advance

        def spied(carried, *args, **kwargs):
            result = advance(carried, *args, **kwargs)
            advanced.append(result is not None)
            return result

        monkeypatch.setattr(CarriedCandidates, "advance", spied)
        # ... and before the partition files became a cost model: the
        # partitions are built only for the bridge scan of a rebuild.  Every
        # iteration but the first has asked ``advance`` by then, so the
        # answers so far number the iteration a build happens in.
        built_in = []

        def spied_build(*args, **kwargs):
            built_in.append(len(advanced))
            return build_partitions(*args, **kwargs)

        monkeypatch.setattr(iteration_module, "build_partitions", spied_build)
        rows, profile_digest, rebuilt = _observe(kind, dirty, shard, backend)
        assert [row[:3] for row in rows] == _GOLDEN_SCORED[kind]
        assert [row[3:5] for row in rows] == _GOLDEN_SCHEDULE[kind, dirty, shard]
        assert [row[5:] for row in rows] == _GOLDEN_IO[kind, dirty, shard]
        assert profile_digest == _GOLDEN_PROFILES[kind]
        # every iteration but the cold first asked; what the engine reports
        # is what ran, and most of the churn ran on the delta path
        assert [not flag for flag in rebuilt[1:]] == advanced
        assert built_in == [i for i, flag in enumerate(rebuilt) if flag]
        assert rebuilt[GOLDEN_WARMUP:].count(False) >= GOLDEN_CHURNED - 1
