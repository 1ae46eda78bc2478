"""The delta-phases wall.

Phase 2 advances the carried ``H`` — keys, multiplicities, bucket sizes — by
the edge delta ``G(t) → G(t+1)`` instead of rebuilding it, and the score slab
follows the keys.  Everything here compares that against the from-scratch
builder (``generate_candidate_tuples``, the reference path), against
``brute_force_two_hop_pairs`` (shares no code with either), against the
search join the positional join replaces, and — at engine level — against a
twin whose carried state is thrown away before every iteration.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import _DELTA_REBUILD_FRACTION, Phase4ScoreCache
from repro.graph.digraph import CSRDiGraph
from repro.graph.knn_graph import KNNGraph
from repro.partition.model import build_partitions
from repro.similarity.workloads import ProfileChange, generate_dense_profiles
from repro.storage.profile_store import OnDiskProfileStore
from repro.tuples.delta import CarriedCandidates, edge_delta
from repro.tuples.generator import (brute_force_two_hop_pairs,
                                    generate_candidate_tuples)
from repro.tuples.hash_table import TupleHashTable
from test_sorted_spine import (GOLDEN_DIM, GOLDEN_WARMUP, _golden_feed,
                               _golden_profiles)

# -- graphs that move -----------------------------------------------------------


def _point(rows, k, source, destination):
    """Make ``source → destination`` an edge, evicting a neighbour if full."""
    if destination not in rows[source]:
        if len(rows[source]) >= k:
            rows[source].remove(min(rows[source]))
        rows[source].add(destination)


@st.composite
def _graph_sequences(draw, min_vertices=3, max_vertices=10, max_k=4):
    """``(n, k, [rows, ...])``: a KNN-shaped graph (``rows[v]`` = out-set of
    ``v``, at most ``k`` wide, no self loops) and up to five successors, each
    made by one of the moves a real iteration makes — and the awkward ones."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    k = draw(st.integers(min_value=1, max_value=min(max_k, n - 1)))
    vertex = st.integers(min_value=0, max_value=n - 1)

    def fresh_row(v):
        return set(draw(st.sets(vertex.filter(lambda u: u != v), max_size=k)))

    def distinct(count):
        return draw(st.lists(vertex, min_size=count, max_size=count, unique=True))

    rows = [fresh_row(v) for v in range(n)]
    sequence = [rows]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        rows = [set(row) for row in rows]
        move = draw(st.sampled_from(["nothing", "rows", "bridge", "reciprocal",
                                     "shortcut", "orphan", "scramble"]))
        if move == "rows":                  # rows replaced wholesale
            for v in draw(st.sets(vertex, min_size=1, max_size=3)):
                rows[v] = fresh_row(v)
        elif move == "bridge":              # one bridge loses and gains edges
            (v,) = distinct(1)
            rows[v] = fresh_row(v)
            for s in draw(st.sets(vertex.filter(lambda u: u != v), max_size=3)):
                if v in rows[s]:
                    rows[s].remove(v)
                else:
                    _point(rows, k, s, v)
        elif move == "reciprocal":          # s → v → s: a self path
            s, v = distinct(2)
            _point(rows, k, s, v)
            _point(rows, k, v, s)
        elif move == "shortcut" and k >= 2:  # s → d is direct and two-hop
            s, v, d = distinct(3)
            _point(rows, k, s, v)
            _point(rows, k, s, d)
            _point(rows, k, v, d)
        elif move == "orphan":              # in-degree 0 and an under-full row
            (v,) = distinct(1)
            for row in rows:
                row.discard(v)
            rows[v] = set(sorted(rows[v])[:max(0, len(rows[v]) - 1)])
        elif move == "scramble":            # most edges move: over any threshold
            rows = [fresh_row(v) for v in range(n)]
        sequence.append(rows)
    return n, k, sequence


def _edge_keys(rows):
    n = len(rows)
    return np.asarray(sorted(s * n + d for s, row in enumerate(rows) for d in row),
                      dtype=np.int64)


def _from_scratch(n, keys, assignment, parts, direct=True, cap=None):
    csr = CSRDiGraph.from_sorted_keys(n, keys)
    table = generate_candidate_tuples(
        csr, build_partitions(csr, assignment, parts), assignment,
        include_direct_edges=direct, max_pairs_per_bridge=cap)
    return csr, table


def _assert_same_table(table: TupleHashTable, reference: TupleHashTable):
    assert table.keys.dtype == reference.keys.dtype == np.int64
    np.testing.assert_array_equal(table.keys, reference.keys)
    assert table.multiplicities.dtype == reference.multiplicities.dtype == np.int32
    np.testing.assert_array_equal(table.multiplicities, reference.multiplicities)
    assert table.bucket_sizes() == reference.bucket_sizes()


class TestDeltaAlgebra:
    @settings(max_examples=250, deadline=None)
    @given(_graph_sequences(), st.booleans(), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False))
    def test_advanced_equals_rebuilt_after_every_step(self, case, direct, parts,
                                                      random):
        n, _, sequence = case
        rng = np.random.default_rng(random.getrandbits(32))

        def assignment():
            return rng.integers(0, parts, size=n)

        keys, placed = _edge_keys(sequence[0]), assignment()
        csr, table = _from_scratch(n, keys, placed, parts, direct)
        carried = CarriedCandidates(csr, keys, table)
        slab = rng.random(len(table))
        for rows in sequence[1:]:
            keys = _edge_keys(rows)
            if rng.random() < 0.3:          # the partitioner moved vertices
                placed = assignment()
            csr, reference = _from_scratch(n, keys, placed, parts, direct)
            before = [array.tobytes() for array in carried._graph_arrays()] + [
                carried.table.keys.tobytes(), carried.table.multiplicities.tobytes()]
            removed, added = edge_delta(carried.edge_keys, keys)
            assert set(removed.tolist()) == set(carried.edge_keys.tolist()) - set(keys.tolist())
            assert set(added.tolist()) == set(keys.tolist()) - set(carried.edge_keys.tolist())
            table, patch = carried.advance(csr, keys, placed, direct,
                                           max_moved=float("inf"))
            # (1) the from-scratch builder, bit for bit — patched sizes included
            _assert_same_table(table, reference)
            # (2) the key set, against the oracle that shares no code
            edges = {(s, d) for s, row in enumerate(rows) for d in row}
            expected = {tuple(pair) for pair in brute_force_two_hop_pairs(csr).tolist()}
            if direct:
                expected |= edges
            assert set(table.iter_tuples()) == expected
            # (3) multiplicities count derivations: every path s → v → d but
            # the self paths, plus the direct edges
            reciprocal = sum((d, s) in edges for s, d in edges)
            paths = int((csr.in_degree_array() * csr.out_degree_array()).sum())
            assert int(table.multiplicities.sum()) == (
                paths - reciprocal + (len(edges) if direct else 0))
            # (4) the slab follows its keys: old score at every survivor, NaN
            # at every arrival
            old_scores = dict(zip(carried.table.keys.tolist(), slab.tolist()))
            followed = patch.apply(slab, np.nan)
            for key, score in zip(table.keys.tolist(), followed.tolist()):
                if key in old_scores:
                    assert score == old_scores[key]
                else:
                    assert np.isnan(score)
            # (5) the positional join is the search join
            cache = Phase4ScoreCache()
            cache.merge(carried.table.keys, slab, "cosine", 3, n)
            touched = rng.random(n) < 0.25
            scores, hits = cache.carry(patch, table.keys, touched)
            searched, found = cache.lookup(table.keys, touched)
            np.testing.assert_array_equal(hits, found)
            np.testing.assert_array_equal(scores, searched)
            # (6) grouping only the unresolved positions lists, per PI edge,
            # what the full bucket index lists there
            order, spans = table.bucket_index(~hits)
            full_order, full_spans = reference.bucket_index()
            # the from-scratch table filters the index it already built
            filtered, filtered_spans = reference.bucket_index(~hits)
            np.testing.assert_array_equal(filtered, order)
            assert filtered_spans == spans
            wanted = {}
            for pair, (lo, hi) in full_spans.items():
                bucket = full_order[lo:hi]
                if not hits[bucket].all():
                    wanted[pair] = bucket[~hits[bucket]].tolist()
            assert {pair: order[lo:hi].tolist()
                    for pair, (lo, hi) in spans.items()} == wanted
            assert list(spans) == sorted(spans)      # run order tiles `order`
            # nothing carried was modified
            assert before == [array.tobytes() for array in carried._graph_arrays()] + [
                carried.table.keys.tobytes(), carried.table.multiplicities.tobytes()]
            carried = CarriedCandidates(csr, keys, table)
            slab = np.where(np.isnan(followed), rng.random(len(followed)), followed)

    def test_an_empty_delta_changes_nothing(self):
        n, parts = 8, 2
        keys = KNNGraph.random(n, 3, seed=4).edge_keys()
        placed = np.arange(n) % parts
        csr, table = _from_scratch(n, keys, placed, parts)
        carried = CarriedCandidates(csr, keys, table)
        advanced, patch = carried.advance(csr, keys.copy(), placed, True,
                                          max_moved=0)
        assert len(patch.deleted) == len(patch.inserted_at) == 0
        _assert_same_table(advanced, table)

    def test_over_the_limit_or_another_vertex_count_asks_for_a_rebuild(self):
        n, parts = 8, 2
        old = KNNGraph.random(n, 3, seed=4).edge_keys()
        new = KNNGraph.random(n, 3, seed=5).edge_keys()
        placed = np.arange(n) % parts
        old_csr, old_table = _from_scratch(n, old, placed, parts)
        carried = CarriedCandidates(old_csr, old, old_table)
        moved = len(np.setxor1d(old, new))
        csr = CSRDiGraph.from_sorted_keys(n, new)
        assert carried.advance(csr, new, placed, True, max_moved=moved - 1) is None
        assert carried.advance(csr, new, placed, True, max_moved=moved) is not None
        bigger = CSRDiGraph.from_sorted_keys(n + 1, new)
        assert carried.advance(bigger, new, np.arange(n + 1) % parts, True,
                               max_moved=float("inf")) is None

    def test_a_delta_that_does_not_describe_the_table_raises(self):
        table = TupleHashTable(6, np.zeros(6, dtype=np.int64))
        table.add_array(np.asarray([[0, 1], [0, 1], [2, 3]]))
        assert table.multiplicities.tolist() == [2, 1]
        placed = np.zeros(6, dtype=np.int64)
        held, absent = table.keys[:1], np.asarray([5 * 6 + 4], dtype=np.int64)
        with pytest.raises(RuntimeError, match="below zero"):
            table.patched(held, np.asarray([-3], dtype=np.int32), placed)
        for change in (0, -1):
            with pytest.raises(RuntimeError, match="positive multiplicity"):
                table.patched(absent, np.asarray([change], dtype=np.int32), placed)
        # never a clamp: the table itself is as it was
        assert table.multiplicities.tolist() == [2, 1]
        patched, _ = table.patched(held, np.asarray([-2], dtype=np.int32), placed)
        assert patched.all_tuples().tolist() == [[2, 3]]


# -- which path phase 2 takes ---------------------------------------------------


def _knn_graph(rows, k):
    graph = KNNGraph(len(rows), k)
    for source, row in enumerate(rows):
        for destination in sorted(row):
            graph.add_candidate(source, destination, 0.5)
    return graph


class TestPathSelection:
    """The runner rebuilds on a cold start, past the threshold and under a
    per-bridge cap; otherwise it advances — and either way the table it
    commits is the from-scratch one."""

    @pytest.mark.parametrize("direct,cap", [(True, None), (False, None), (True, 2)],
                             ids=["direct", "bridges-only", "capped"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_graph_sequences(min_vertices=5, max_k=3))
    def test_every_iteration_commits_the_from_scratch_table(self, direct, cap, case):
        n, k, sequence = case
        config = EngineConfig(k=k, num_partitions=2, seed=3,
                              include_direct_edges=direct, max_pairs_per_bridge=cap)
        with KNNEngine(generate_dense_profiles(n, dim=4, seed=1), config) as engine:
            runner = engine._iteration_runner
            previous = None
            for iteration, rows in enumerate(sequence):
                keys = _edge_keys(rows)
                result = runner.run(iteration, _knn_graph(rows, k))
                _, reference = _from_scratch(n, keys, result.assignment, 2, direct, cap)
                assert result.num_candidate_tuples == len(reference)
                rebuilt = (previous is None or cap is not None
                           or len(np.setxor1d(previous, keys))
                           > _DELTA_REBUILD_FRACTION * n * k)
                assert result.candidates_rebuilt == rebuilt
                assert result.summary()["candidates_rebuilt"] == rebuilt
                if cap is None:
                    np.testing.assert_array_equal(runner._candidates.edge_keys, keys)
                    _assert_same_table(runner._candidates.table, reference)
                    previous = keys
                else:
                    assert runner._candidates is None

    def test_a_delta_over_the_threshold_in_mid_sequence(self, caplog):
        """40 vertices x k=4: 20 moved edges is the limit.  A swap of one
        edge advances, a scramble rebuilds, and the swap after it advances
        from the rebuilt table."""
        n, k = 40, 4
        rng = np.random.default_rng(8)

        def scrambled():
            return [set(rng.choice(np.delete(np.arange(n), v), size=k,
                                   replace=False).tolist()) for v in range(n)]

        def swapped(rows):
            rows = [set(row) for row in rows]
            gone = min(rows[0])
            rows[0].remove(gone)
            rows[0].add(next(d for d in range(1, n) if d not in rows[0] and d != gone))
            return rows

        first = scrambled()
        second = swapped(first)
        third = scrambled()
        sequence = [first, second, third, swapped(third)]
        config = EngineConfig(k=k, num_partitions=3, seed=3)
        with KNNEngine(generate_dense_profiles(n, dim=4, seed=1), config) as engine:
            runner = engine._iteration_runner
            with caplog.at_level(logging.INFO, logger="repro.core.iteration"):
                rebuilt = [runner.run(i, _knn_graph(rows, k)).candidates_rebuilt
                           for i, rows in enumerate(sequence)]
        assert rebuilt == [True, False, True, False]
        said = [record.getMessage() for record in caplog.records
                if record.getMessage().startswith("iteration")]
        assert ["(rebuilt)" in line for line in said] == rebuilt
        assert ["(advanced)" in line for line in said] == [not r for r in rebuilt]


# -- the engine: keeping the state against throwing it away ---------------------


def _counters(result):
    return (result.graph.edge_fingerprint(), result.similarity_evaluations,
            result.reused_scores, result.steps_skipped,
            result.io_stats.partition_loads, result.io_stats.partition_unloads,
            result.io_stats.bytes_read)


class TestEngineTwins:
    CHURNED = 30

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_discarding_the_carried_state_changes_nothing(self, kind):
        observed, rebuilt = {}, {}
        for keep in (True, False):
            config = EngineConfig(k=5, num_partitions=6, heuristic="degree-low-high",
                                  seed=17)
            profiles = _golden_profiles(kind)
            feed = _golden_feed(kind, profiles)
            with KNNEngine(profiles, config) as engine:
                results = []
                for iteration in range(GOLDEN_WARMUP + self.CHURNED):
                    engine.enqueue_profile_changes(feed(iteration))
                    if not keep:
                        engine._iteration_runner._candidates = None
                    results.append(engine.run_iteration())
            observed[keep] = [_counters(result) for result in results]
            rebuilt[keep] = [result.candidates_rebuilt for result in results]
        assert observed[True] == observed[False]
        assert all(rebuilt[False])
        # the keeper rebuilt while the graph was still forming and advanced
        # through most of the churn (the sparse graph keeps moving enough to
        # cross the threshold now and then: both sides of it are compared)
        churned = rebuilt[True][GOLDEN_WARMUP:]
        assert rebuilt[True][0] and churned.count(False) > self.CHURNED // 2
        assert sum(row[2] for row in observed[True][GOLDEN_WARMUP:]) > 0


    def test_a_resumed_engine_rebuilds_once_then_advances(self, tmp_path):
        """What is carried is not checkpointed (the format is the parent
        commit's): a resumed engine has the saved score cache but no
        multiplicities, so its first iteration is the reference path with
        the search join, its second the delta path — same numbers as the
        engine that never stopped."""
        config = EngineConfig(k=5, num_partitions=6, heuristic="degree-low-high",
                              seed=17)
        warm, more = GOLDEN_WARMUP + 2, 3

        def run(engine, feed, first, count):
            results = []
            for iteration in range(first, first + count):
                engine.enqueue_profile_changes(feed(iteration))
                results.append(engine.run_iteration())
            return results

        profiles = _golden_profiles("dense")
        feed = _golden_feed("dense", profiles)
        with KNNEngine(profiles, config) as engine:
            run(engine, feed, 0, warm)
            expected = run(engine, feed, warm, more)
        profiles = _golden_profiles("dense")
        feed = _golden_feed("dense", profiles)
        with KNNEngine(profiles, config) as engine:
            run(engine, feed, 0, warm)
            engine.save_checkpoint(tmp_path / "checkpoint")
        with KNNEngine.from_checkpoint(tmp_path / "checkpoint") as resumed:
            finished = run(resumed, feed, warm, more)
        # the pair → generation map of dirty scheduling is not checkpointed
        # either, so the first resumed iteration skips no step; its scores,
        # and everything from the second iteration on, are the twin's
        assert _counters(finished[0])[:3] == _counters(expected[0])[:3]
        assert [_counters(result) for result in finished[1:]] == [
            _counters(result) for result in expected[1:]]
        assert [r.candidates_rebuilt for r in expected] == [False] * more
        assert [r.candidates_rebuilt for r in finished] == [True, False, False]
        assert not finished[0].full_rescore and finished[0].reused_scores > 0

    @pytest.mark.parametrize("lose", ["capacity", "history", "restored", "toggle"])
    def test_losing_the_scores_keeps_the_candidates(self, lose):
        """Phase 2 does not depend on the score cache: an over-capacity
        slab, a touched-row history the store cannot vouch for, a cache
        swapped in from outside or ``incremental_phase4`` off cost rescoring
        (or the search join), never the rebuild — and never a different
        graph."""
        def engine_of(**overrides):
            config = EngineConfig(k=5, num_partitions=6, seed=17,
                                  heuristic="degree-low-high", **overrides)
            return KNNEngine(_golden_profiles("dense"), config)

        with engine_of() as twin, engine_of(
                incremental_phase4=lose != "toggle") as engine:
            for _ in range(GOLDEN_WARMUP + 1):
                expected, result = twin.run_iteration(), engine.run_iteration()
            runner = engine._iteration_runner
            if lose == "capacity":
                runner.score_cache.max_entries = 10
                engine.run_iteration(), twin.run_iteration()
                assert runner.score_cache.keys is None
                runner.score_cache.max_entries = 4_000_000
            elif lose == "history":
                # another handle rewrites a row underneath; the engine's own
                # handle reloads and can no longer enumerate what changed
                change = [ProfileChange(user=3, kind="set",
                                        vector=np.full(GOLDEN_DIM, 0.5))]
                OnDiskProfileStore(engine.profile_store.base_dir).apply_changes(change)
                engine.profile_store.reload()
                twin.profile_store.apply_changes(change)
            elif lose == "restored":
                cache = runner.score_cache
                runner.restore_score_cache(
                    cache.advanced_to(np.empty(0, dtype=np.int64), cache.generation))
            expected, result = twin.run_iteration(), engine.run_iteration()
            assert not result.candidates_rebuilt and not expected.candidates_rebuilt
            assert result.full_rescore == (lose != "restored")
            assert result.reused_scores == (
                expected.reused_scores if lose == "restored" else 0)
            assert result.graph.edge_fingerprint() == expected.graph.edge_fingerprint()
            after = engine.run_iteration()
            assert not after.candidates_rebuilt
            assert after.full_rescore == (lose == "toggle")
            assert after.graph.edge_fingerprint() == twin.run_iteration().graph.edge_fingerprint()


class TestNothingGrows:
    def test_two_hundred_churned_iterations(self):
        """ROADMAP item 6 in miniature: after 200 churned iterations what is
        carried is still exactly a from-scratch build, no larger than it was
        at iteration 20, and nothing in it can be written to."""
        config = EngineConfig(k=5, num_partitions=6, heuristic="degree-low-high",
                              seed=17)
        profiles = _golden_profiles("dense")
        feed = _golden_feed("dense", profiles)
        sizes = {}
        with KNNEngine(profiles, config) as engine:
            runner = engine._iteration_runner
            for iteration in range(GOLDEN_WARMUP + 200):
                engine.enqueue_profile_changes(feed(iteration))
                graph = engine.graph
                result = engine.run_iteration()
                carried = runner._candidates
                sizes[iteration] = (carried.table.memory_estimate_bytes(),
                                    carried.nbytes + runner.score_cache.values.nbytes)
            assert not result.candidates_rebuilt
            n = graph.num_vertices
            np.testing.assert_array_equal(carried.edge_keys, graph.edge_keys())
            csr, reference = _from_scratch(n, carried.edge_keys, result.assignment, 6)
            _assert_same_table(carried.table, reference)
            for name in ("indptr", "indices", "rindptr", "rindices"):
                np.testing.assert_array_equal(getattr(carried.csr, name),
                                              getattr(csr, name))
            assert runner.score_cache.keys is carried.table.keys
            for array in (*carried._graph_arrays(), carried.table.keys,
                          carried.table.multiplicities, runner.score_cache.values):
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                carried.table.add_array(np.asarray([[0, 1]]))
        for early, late in zip(sizes[20], sizes[GOLDEN_WARMUP + 199]):
            assert abs(late - early) <= 0.05 * early
