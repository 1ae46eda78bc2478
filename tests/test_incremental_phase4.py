"""The incremental phase-4 differential wall.

The generation-keyed score cache promises that an engine reusing carried
scores produces graphs **bit-identical** to a full rescore, while pushing
only tuples with at least one touched endpoint (or never-scored pairs)
through a similarity kernel.  These tests drive random phase-5 churn
through the update queue and compare each run fingerprint-for-fingerprint
with its twin against a store that cannot vouch for its row deltas (the
``full_rescore`` fixture: every tuple rescored, as after a reload or a
recovery), pin the exact clean/dirty
partition of a candidate batch at the cache level, and assert that the
rescored-tuple counts scale with the churn, not the graph.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import Phase4ScoreCache
from repro.graph.digraph import CSRDiGraph
from repro.partition.model import build_partitions
from repro.pigraph.traversal import HEURISTICS
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.testing import FaultPlan, InjectedCrash
from repro.tuples.generator import generate_candidate_tuples

NUM_USERS = 120
NUM_ITEMS = 300


def _profiles(kind: str, seed: int = 7):
    if kind == "dense":
        return generate_dense_profiles(NUM_USERS, dim=8, num_communities=4,
                                       seed=seed)
    return generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=12,
                                    num_communities=4, seed=seed)


def _churn_feed(kind: str, per_iteration, rng_seed: int, users_pool=NUM_USERS):
    """Deterministic churn feed: ``per_iteration[i]`` users change in iter i."""
    rng = np.random.default_rng(rng_seed)

    def feed(iteration: int):
        count = per_iteration[iteration] if iteration < len(per_iteration) else 0
        if count == 0:
            return []
        users = rng.choice(users_pool, size=count, replace=False)
        if kind == "dense":
            return [ProfileChange(user=int(u), kind="set", vector=rng.random(8))
                    for u in users]
        return [ProfileChange(user=int(u), kind="add",
                              item=int(rng.integers(0, NUM_ITEMS)))
                for u in users]

    return feed


def _run(kind: str, churn, iterations=3, context=contextlib.nullcontext(),
         **overrides):
    base = dict(k=5, num_partitions=4, heuristic="degree-low-high", seed=17)
    config = EngineConfig(**dict(base, **overrides))
    with context, KNNEngine(_profiles(kind), config) as engine:
        run = engine.run(num_iterations=iterations, profile_change_feed=churn)
    return run


class TestDifferentialWall:
    """Incremental fingerprints must equal full-rescore fingerprints, always."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["dense", "sparse"]),
        churn_sizes=st.lists(st.integers(min_value=0, max_value=30),
                             min_size=3, max_size=3),
        churn_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_incremental_bit_identical_to_full_rescore(self, full_rescore, kind,
                                                       churn_sizes, churn_seed):
        runs = {}
        for incremental in (True, False):
            churn = _churn_feed(kind, churn_sizes, churn_seed)
            runs[incremental] = _run(kind, churn,
                                     context=full_rescore(not incremental))
        incremental_fps = [result.graph.edge_fingerprint()
                           for result in runs[True].iterations]
        full_fps = [result.graph.edge_fingerprint()
                    for result in runs[False].iterations]
        assert incremental_fps == full_fps
        # the full-rescore runs never touch the cache
        assert all(result.reused_scores == 0 for result in runs[False].iterations)
        assert all(result.full_rescore for result in runs[False].iterations)

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_reuses_and_agrees(self, kind, heuristic, full_rescore):
        """The engine must actually *reuse* scores, not just agree — in
        whichever order the heuristic walks the steps."""
        churn_sizes = [8, 8, 8, 8]
        incremental = _run(kind, _churn_feed(kind, churn_sizes, 3),
                           iterations=4, heuristic=heuristic)
        full = _run(kind, _churn_feed(kind, churn_sizes, 3), iterations=4,
                    context=full_rescore(), heuristic=heuristic)
        assert ([r.graph.edge_fingerprint() for r in incremental.iterations]
                == [r.graph.edge_fingerprint() for r in full.iterations])
        assert incremental.iterations[0].full_rescore          # cold cache
        for result in incremental.iterations[1:]:
            assert not result.full_rescore
            assert result.reused_scores > 0
            assert (result.similarity_evaluations + result.reused_scores
                    == result.num_candidate_tuples)


class TestCleanDirtyPartition:
    """The cache-level clean/dirty split is exact, not merely conservative."""

    def _populated_cache(self, n=50):
        cache = Phase4ScoreCache(max_entries=10_000)
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, n, size=(300, 2), dtype=np.int64)
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
        values = rng.random(len(keys))
        cache.merge(keys, values, "cosine", generation=3, num_vertices=n)
        return cache, keys, values, n

    def test_hits_require_cached_pair_and_clean_endpoints(self):
        cache, keys, values, n = self._populated_cache()
        touched = np.zeros(n, dtype=bool)
        touched[[4, 17, 23]] = True
        rng = np.random.default_rng(9)
        query_keys = np.unique(rng.integers(0, n * n, size=500, dtype=np.int64))
        scores, hit_mask = cache.lookup(query_keys, touched)
        in_cache = np.isin(query_keys, keys)
        clean = ~(touched[query_keys // n] | touched[query_keys % n])
        # hit exactly when the pair was scored AND both endpoints are clean
        np.testing.assert_array_equal(hit_mask, in_cache & clean)
        # every dirty row therefore has a touched endpoint or a fresh pair
        dirty = ~hit_mask
        assert np.all(~clean[dirty] | ~in_cache[dirty])
        # hit scores come back verbatim; a dirty slot can never pass for one
        position = np.searchsorted(keys, query_keys[hit_mask])
        np.testing.assert_array_equal(scores[hit_mask], values[position])
        assert np.isnan(scores[dirty]).all()

    def test_lookup_does_not_need_sorted_queries(self):
        """Phase 4 hands over H's sorted keys; any order gives the same join."""
        cache, keys, _, n = self._populated_cache()
        touched = np.zeros(n, dtype=bool)
        touched[[4, 17, 23]] = True
        rng = np.random.default_rng(10)
        query_keys = np.unique(rng.integers(0, n * n, size=500, dtype=np.int64))
        shuffle = rng.permutation(len(query_keys))
        scores, hit_mask = cache.lookup(query_keys, touched)
        shuffled_scores, shuffled_hits = cache.lookup(query_keys[shuffle], touched)
        np.testing.assert_array_equal(shuffled_hits, hit_mask[shuffle])
        np.testing.assert_array_equal(shuffled_scores, scores[shuffle])

    def test_no_touched_rows_hits_every_cached_pair(self):
        cache, keys, values, n = self._populated_cache()
        scores, hit_mask = cache.lookup(keys, np.zeros(n, dtype=bool))
        assert hit_mask.all()
        np.testing.assert_array_equal(scores, values)

    def test_everything_touched_hits_nothing(self):
        cache, keys, _, n = self._populated_cache()
        _, hit_mask = cache.lookup(keys, np.ones(n, dtype=bool))
        assert not hit_mask.any()

    def test_over_capacity_iteration_clears_the_cache(self):
        cache = Phase4ScoreCache(max_entries=10)
        keys = np.arange(11, dtype=np.int64)
        cache.merge(keys, np.zeros(11), "cosine", 0, 100)
        assert cache.keys is None
        assert cache.evictions == 1
        assert not cache.matches("cosine", 100)

    def test_matches_requires_measure_and_vertex_count(self):
        cache, _, _, n = self._populated_cache()
        assert cache.matches("cosine", n)
        assert not cache.matches("pearson", n)
        assert not cache.matches("cosine", n + 1)


class TestInPlaceMergeDifferential:
    """``Phase4ScoreCache.merge`` adopts ``(H.keys, slab)`` as the next cache.

    An iteration joins ``H``'s sorted keys against the cache once, rescores
    the misses into the slab, and hands both arrays over: no sort, no copy,
    no interleave.  The reference is the same scored pairs handed over in
    arbitrary order and chunking and sorted back: identical key/score
    arrays, bit for bit.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=40),
        old_seed=st.integers(min_value=0, max_value=2**16),
        fresh_seed=st.integers(min_value=0, max_value=2**16),
        touched_seed=st.integers(min_value=0, max_value=2**16),
        old_count=st.integers(min_value=0, max_value=300),
        fresh_count=st.integers(min_value=0, max_value=300),
        num_chunks=st.integers(min_value=1, max_value=4),
    )
    def test_merge_matches_rebuild_byte_for_byte(self, num_vertices, old_seed,
                                                 fresh_seed, touched_seed,
                                                 old_count, fresh_count,
                                                 num_chunks):
        """Simulate one full iteration at the cache level: join a candidate
        set against a touched mask, rescore the dirty slots, then adopt —
        and compare against the same pairs shuffled, chunked and re-sorted."""
        top = num_vertices * num_vertices
        old_rng = np.random.default_rng(old_seed)
        old_keys = np.unique(old_rng.integers(0, top, size=old_count,
                                              dtype=np.int64))
        old_values = old_rng.random(len(old_keys))
        fresh_rng = np.random.default_rng(fresh_seed)
        candidate_keys = np.unique(fresh_rng.integers(0, top, size=fresh_count,
                                                      dtype=np.int64))
        touched_rng = np.random.default_rng(touched_seed)
        touched_mask = touched_rng.random(num_vertices) < 0.3

        cache = Phase4ScoreCache(max_entries=10_000)
        cache.merge(old_keys, old_values, "jaccard",
                    generation=4, num_vertices=num_vertices)
        scores, hit_mask = cache.lookup(candidate_keys, touched_mask)
        dirty_rows = np.flatnonzero(~hit_mask)
        scores[dirty_rows] = fresh_rng.random(len(dirty_rows))  # "rescored"
        # the reference sees the same pairs in arbitrary order and chunking
        shuffle = fresh_rng.permutation(len(candidate_keys))
        bounds = np.linspace(0, len(shuffle), num_chunks + 1).astype(int)
        chunked_keys = np.concatenate(
            [candidate_keys[shuffle[a:b]] for a, b in zip(bounds, bounds[1:])])
        chunked_scores = np.concatenate(
            [scores[shuffle[a:b]] for a, b in zip(bounds, bounds[1:])])
        order = np.argsort(chunked_keys)
        reference = Phase4ScoreCache(max_entries=10_000)
        reference.merge(chunked_keys[order], chunked_scores[order],
                        "jaccard", generation=5, num_vertices=num_vertices)

        cache.merge(candidate_keys, scores, "jaccard", generation=5,
                    num_vertices=num_vertices)
        assert cache.keys.tobytes() == reference.keys.tobytes()
        assert cache.values.tobytes() == reference.values.tobytes()
        assert cache.generation == 5
        assert cache.measure == "jaccard"

    def test_merge_adopts_sorted_arrays_as_is(self):
        cache = Phase4ScoreCache(max_entries=100)
        keys = np.asarray([3, 7], dtype=np.int64)
        values = np.asarray([0.3, 0.7])
        cache.merge(keys, values, "cosine", 1, 10)
        # no sort, no copy: the cache *is* the iteration's arrays
        assert cache.keys is keys and cache.values is values
        assert cache.generation == 1
        # what merge cannot vouch for it refuses, leaving the cache as it was
        with pytest.raises(ValueError):
            cache.merge(np.asarray([7, 3], dtype=np.int64), values.copy(),
                        "cosine", 2, 10)
        with pytest.raises(ValueError):
            cache.merge(np.asarray([3, 3], dtype=np.int64), values.copy(),
                        "cosine", 2, 10)
        with pytest.raises(ValueError):
            cache.merge(np.asarray([1, 2, 3], dtype=np.int64), values.copy(),
                        "cosine", 2, 10)
        assert cache.keys is keys and cache.generation == 1

    def test_merge_keeps_only_what_was_scored(self):
        cache = Phase4ScoreCache(max_entries=100)
        cache.merge(np.asarray([11, 22, 44], dtype=np.int64),
                    np.asarray([0.11, 0.22, 0.44]), "cosine", 0, 10)
        # candidates: pairs 22 (clean, cached → reused) and 33 (fresh)
        candidates = np.asarray([22, 33], dtype=np.int64)
        scores, hit_mask = cache.lookup(candidates, np.zeros(10, dtype=bool))
        assert hit_mask.tolist() == [True, False]
        scores[1] = 0.33
        cache.merge(candidates, scores, "cosine", 1, 10)
        # 11 and 44 were not candidates this iteration → gone; 22 was carried
        # over in its slab slot; 33 was scored into its own
        assert cache.keys.tolist() == [22, 33]
        np.testing.assert_array_equal(cache.values, [0.22, 0.33])

    def test_aborted_iteration_keeps_the_cache(self):
        """The join reads the cache and writes only the iteration's own slab,
        and phase 2 advances a copy of what is carried, so an iteration that
        dies between its joins and its adoption has changed nothing — not
        the slab, not ``H``'s keys and multiplicities, not the baseline
        graph they were made of.  The retry (a delta iteration, like the
        one that died) reuses exactly what a never-aborted twin reuses, and
        produces the same graph."""
        crash_plan = FaultPlan().crash_at("phase4.step", occurrence=1)

        def left_behind(runner):
            carried = runner.score_cache
            return ([array.tobytes() for array in carried._graph_arrays()]
                    + [carried.table.keys.tobytes(),
                       carried.table.multiplicities.tobytes(),
                       runner.score_cache.keys.tobytes(),
                       runner.score_cache.values.tobytes(),
                       runner.score_cache.generation])

        runs = {}
        for name, plan in (("twin", None), ("aborted", crash_plan)):
            config = EngineConfig(k=5, num_partitions=4,
                                  heuristic="degree-low-high", seed=17)
            with KNNEngine(_profiles("dense"), config) as engine:
                for _ in range(7):       # converged: phase 2 is on the delta path
                    warm = engine.run_iteration()
                assert not warm.candidates_rebuilt
                runner = engine._iteration_runner
                carried, before = runner.score_cache.table, left_behind(runner)
                # one row changes, so its partition's steps reach
                # "phase4.step" after both joins have already run
                engine.profile_store.apply_changes([ProfileChange(
                    user=3, kind="set", vector=np.full(8, 0.5))])
                if plan is not None:
                    runner._fault = plan
                    with pytest.raises(InjectedCrash):
                        engine.run_iteration()
                    runner._fault = None
                    assert runner.score_cache.table is carried
                    assert before == left_behind(runner)
                result = engine.run_iteration()
                runs[name] = (result.graph.edge_fingerprint(),
                              result.reused_scores,
                              result.similarity_evaluations,
                              result.candidates_rebuilt)
        assert runs["aborted"] == runs["twin"]
        assert runs["twin"][1] > 0 and runs["twin"][3] is False

    def test_an_aborted_iteration_leaves_every_carried_field(self):
        """One commit: an iteration that dies between its joins and its
        merge leaves every field of the carried state the very object it
        was — ``G(t)``, ``H``, the slab, its tags and its alignment."""
        config = EngineConfig(k=5, num_partitions=4,
                              heuristic="degree-low-high", seed=17)
        with KNNEngine(_profiles("dense"), config) as engine:
            for _ in range(7):
                engine.run_iteration()
            runner = engine._iteration_runner
            state = runner.score_cache
            assert state.aligned
            before = {name: getattr(state, name) for name in (
                "csr", "edge_keys", "table", "keys", "values", "measure",
                "generation", "num_vertices", "aligned",
                "evictions")}
            engine.profile_store.apply_changes([ProfileChange(
                user=3, kind="set", vector=np.full(8, 0.5))])
            runner._fault = FaultPlan().crash_at("phase4.step", occurrence=1)
            with pytest.raises(InjectedCrash):
                engine.run_iteration()
            runner._fault = None
            for name, value in before.items():
                assert getattr(state, name) is value, name

    def test_merge_keeps_the_graph_whatever_happens_to_the_scores(self):
        """An over-capacity set leaves no scores, counts one eviction, but
        keeps ``G(t)`` and ``H``.  A graph whose table is not the scored
        keys' is refused, changing nothing."""
        rows = [{1, 2}, {2}, {0}]
        keys = np.asarray(sorted(s * 3 + d for s, row in enumerate(rows)
                                 for d in row), dtype=np.int64)
        csr = CSRDiGraph.from_sorted_keys(3, keys)
        assignment = np.zeros(3, dtype=np.int64)
        table = generate_candidate_tuples(
            csr, build_partitions(csr, assignment, 1), assignment)
        state = Phase4ScoreCache(max_entries=len(table) - 1)
        state.merge(table.keys, np.zeros(len(table)), "cosine", 1, 3,
                    graph=(csr, keys, table))
        assert state.table is table and state.csr is csr
        assert state.keys is None
        assert not state.aligned and state.evictions == 1
        with pytest.raises(ValueError):
            state.merge(table.keys.copy(), np.zeros(len(table)), "cosine", 2,
                        3, graph=(csr, keys, table))
        assert state.table is table and state.evictions == 1

    def test_scored_set_over_capacity_clears(self):
        cache = Phase4ScoreCache(max_entries=3)
        cache.merge(np.arange(2, dtype=np.int64), np.zeros(2),
                    "cosine", 0, 10)
        # 2 reused + 2 rescored = 4 > 3: over capacity
        cache.merge(np.asarray([0, 1, 50, 51], dtype=np.int64), np.ones(4),
                    "cosine", 1, 10)
        assert cache.keys is None
        assert cache.evictions == 1


class TestRescoredCountsScaleWithChurn:
    """Kernel work tracks the touched rows, not the candidate volume."""

    def test_zero_churn_rescores_only_fresh_pairs(self):
        """With no churn, warm iterations rescore only never-seen pairs."""
        run = _run("dense", None, iterations=4)
        for result in run.iterations[1:]:
            # every tuple already scored last iteration is reused: the
            # rescored ones are exactly this iteration's fresh pairs
            assert not result.full_rescore
            assert result.reused_scores > 0
            assert result.similarity_evaluations < result.num_candidate_tuples

    def test_more_churn_more_rescoring(self):
        small = _run("sparse", _churn_feed("sparse", [4] * 4, 11), iterations=4)
        large = _run("sparse", _churn_feed("sparse", [60] * 4, 11), iterations=4)
        small_rescored = sum(r.similarity_evaluations for r in small.iterations[1:])
        large_rescored = sum(r.similarity_evaluations for r in large.iterations[1:])
        assert small_rescored < large_rescored

    @staticmethod
    def _candidate_pairs(graph) -> set:
        """The exact phase-2 candidate set of ``G(t)``: two-hop ∪ direct."""
        from repro.tuples.generator import brute_force_two_hop_pairs
        csr = graph.to_csr()
        pairs = {(int(s), int(d)) for s, d in brute_force_two_hop_pairs(csr)}
        pairs |= {(int(s), int(d)) for s, d in graph.edge_array() if s != d}
        return pairs

    def test_rescored_count_is_exactly_dirty_plus_fresh(self):
        """Rescored == candidates − (cached pairs with both endpoints clean),
        derived from first principles — nothing clean-and-cached is ever
        rescored, and nothing dirty or fresh is ever reused.  The in-place
        merge keeps the cache contents identical to a full rebuild (this
        iteration's scored pairs, nothing else), so the one-iteration
        model holds exactly."""
        churn = _churn_feed("dense", [10] * 4, 13)
        config = EngineConfig(k=5, num_partitions=4, heuristic="degree-low-high",
                              seed=17)
        with KNNEngine(_profiles("dense"), config) as engine:
            previous_candidates: set = set()
            touched_last: set = set()
            for iteration in range(4):
                changes = churn(iteration)
                engine.enqueue_profile_changes(changes)
                candidates = self._candidate_pairs(engine.graph)
                result = engine.run_iteration()
                assert result.num_candidate_tuples == len(candidates)
                if iteration > 0:
                    clean_cached = sum(
                        1 for (s, d) in candidates
                        if (s, d) in previous_candidates
                        and s not in touched_last and d not in touched_last)
                    assert result.reused_scores == clean_cached
                    assert result.similarity_evaluations == len(candidates) - clean_cached
                previous_candidates = candidates
                # the queued changes are applied at the end of this
                # iteration, dirtying the *next* iteration's lookups
                touched_last = {change.user for change in changes}
