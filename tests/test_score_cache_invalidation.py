"""Cache-invalidation edges of the incremental phase 4.

Every situation in which the profile store cannot vouch for the row deltas
since the cached generation must cost **exactly one** full rescore — never
a stale reuse, and never a permanent fallback to full rescoring:

* ``reload()`` after an external rewrite of the store files,
* the generation rollover after a journal compaction folds the sparse
  row-remap journal into the segments,
* and the ``backend="process"``/``num_workers=1`` pool-skip path, whose
  only full rescore is the cold first iteration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.iteration import OutOfCoreIteration
from repro.core.engine import KNNEngine
from repro.core.update_queue import ProfileUpdateQueue
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 100


def _runner(tmp_path, profiles, journal_limit=None, **config_kwargs):
    config = EngineConfig(k=5, num_partitions=4, seed=3, **config_kwargs)
    profile_store = OnDiskProfileStore.create(
        tmp_path / "profiles", profiles, disk_model=config.disk_model,
        journal_limit=journal_limit)
    return OutOfCoreIteration(config, profile_store), profile_store


def _queue(changes):
    queue = ProfileUpdateQueue()
    queue.enqueue_many(changes)
    return queue


def _sparse_changes(users, seed=0):
    rng = np.random.default_rng(seed)
    return [ProfileChange(user=int(u), kind="add",
                          item=int(rng.integers(0, 500))) for u in users]


class TestReloadForcesOneFullRescore:
    def test_reload_after_external_rewrite(self, tmp_path):
        profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=10,
                                            seed=5)
        runner, store = _runner(tmp_path, profiles)
        graph = KNNGraph.random(NUM_USERS, 5, seed=5)
        first = runner.run(0, graph)
        warm = runner.run(1, first.graph)
        assert warm.full_rescore is False and warm.reused_scores > 0

        # another handle rewrites the files underneath; this handle reloads
        external = OnDiskProfileStore(store.base_dir)
        external.apply_changes(_sparse_changes([1, 2, 3]))
        store.reload()

        cold = runner.run(2, warm.graph)
        assert cold.full_rescore is True
        assert cold.reused_scores == 0
        assert cold.similarity_evaluations == cold.num_candidate_tuples
        # exactly once: the next iteration is incremental again
        recovered = runner.run(3, cold.graph)
        assert recovered.full_rescore is False
        assert recovered.reused_scores > 0

    def test_reload_parity_with_never_cached_run(self, tmp_path):
        """The reload-triggered rescore must also be *correct* (it sees the
        externally rewritten profiles, not the cached pre-rewrite scores)."""
        profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=10,
                                            seed=5)
        runner, store = _runner(tmp_path, profiles)
        graph = KNNGraph.random(NUM_USERS, 5, seed=5)
        second = runner.run(1, runner.run(0, graph).graph)
        external = OnDiskProfileStore(store.base_dir)
        external.apply_changes(_sparse_changes(range(20), seed=9))
        store.reload()
        incremental_result = runner.run(2, second.graph)

        fresh_runner, fresh_store = _runner(tmp_path / "fresh", profiles,
                                            incremental_phase4=False)
        fresh_store.apply_changes(_sparse_changes(range(20), seed=9))
        oracle = fresh_runner.run(2, second.graph)
        assert (incremental_result.graph.edge_fingerprint()
                == oracle.graph.edge_fingerprint())


class TestCompactionForcesOneFullRescore:
    def test_journal_compaction_rolls_the_generation(self, tmp_path):
        profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=10,
                                            seed=7)
        # journal_limit=5: the 8-user batch in iteration 1 forces compaction
        runner, store = _runner(tmp_path, profiles, journal_limit=5)
        graph = KNNGraph.random(NUM_USERS, 5, seed=7)

        first = runner.run(0, graph, update_queue=_queue(
            _sparse_changes([1, 2], seed=1)))                  # no compaction
        warm = runner.run(1, first.graph, update_queue=_queue(
            _sparse_changes(range(10, 18), seed=2)))           # compacts
        assert warm.full_rescore is False                      # pre-compaction deltas were fine
        assert warm.reused_scores > 0

        cold = runner.run(2, warm.graph)
        assert cold.full_rescore is True                       # rollover: exactly one
        assert cold.reused_scores == 0
        recovered = runner.run(3, cold.graph)
        assert recovered.full_rescore is False
        assert recovered.reused_scores > 0

    def test_compaction_during_engine_run_stays_bit_identical(self, tmp_path):
        profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=10,
                                            seed=11)
        fingerprints = {}
        for incremental in (True, False):
            runner, _ = _runner(tmp_path / f"inc-{incremental}", profiles,
                                journal_limit=4,
                                incremental_phase4=incremental)
            graph = KNNGraph.random(NUM_USERS, 5, seed=11)
            fps = []
            for iteration in range(4):
                result = runner.run(iteration, graph, update_queue=_queue(
                    _sparse_changes(range(iteration * 7, iteration * 7 + 7),
                                    seed=iteration)))
                graph = result.graph
                fps.append(graph.edge_fingerprint())
            fingerprints[incremental] = fps
        assert fingerprints[True] == fingerprints[False]


class TestPoolSkipPath:
    def test_single_worker_pool_skip_rescoring_once(self, tmp_path):
        """backend='process' with num_workers=1 skips the pool but must keep
        the cache: exactly one full rescore (the cold start), then reuse."""
        profiles = generate_dense_profiles(NUM_USERS, dim=6, num_communities=3,
                                           seed=13)
        runner, _ = _runner(tmp_path, profiles, backend="process",
                            num_workers=1)
        assert runner.workers.transport == "inline"            # pool skipped
        graph = KNNGraph.random(NUM_USERS, 5, seed=13)
        results = []
        for iteration in range(3):
            result = runner.run(iteration, graph)
            graph = result.graph
            results.append(result)
        assert [r.full_rescore for r in results] == [True, False, False]
        assert results[0].reused_scores == 0
        assert all(r.reused_scores > 0 for r in results[1:])

    def test_pool_skip_matches_serial_with_cache_on(self):
        profiles = generate_dense_profiles(NUM_USERS, dim=6, num_communities=3,
                                           seed=13)
        rng_feed = lambda seed: _feed_dense(seed)
        fingerprints = {}
        for backend, workers in (("serial", 1), ("process", 1)):
            config = EngineConfig(k=5, num_partitions=4, seed=13,
                                  backend=backend, num_workers=workers)
            with KNNEngine(profiles, config) as engine:
                run = engine.run(num_iterations=3,
                                 profile_change_feed=rng_feed(21))
            fingerprints[backend] = [r.graph.edge_fingerprint()
                                     for r in run.iterations]
        assert fingerprints["serial"] == fingerprints["process"]


def _feed_dense(seed):
    rng = np.random.default_rng(seed)

    def feed(_iteration):
        users = rng.choice(NUM_USERS, size=6, replace=False)
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(6))
                for u in users]

    return feed


class TestDeltaLogBoundary:
    """Both edges of the touched-row delta-log window, pinned exactly.

    After ``_DELTA_LOG_LIMIT`` evictions the floor sits at the generation
    of the newest *dropped* entry: a query at exactly the floor is still
    answerable in full (the dropped batch described changes *up to* the
    floor, which "since the floor" does not need), one generation below it
    is not, and a future generation never is.
    """

    def _store_with_batches(self, tmp_path, num_batches):
        from repro.storage.profile_store import _DELTA_LOG_LIMIT  # noqa: F401
        profiles = generate_dense_profiles(80, dim=4, seed=31)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles)
        assert store.generation == 0
        touched_by_generation = {}
        rng = np.random.default_rng(2)
        for index in range(num_batches):
            users = sorted({int(u) for u in rng.integers(0, 80, size=3)})
            store.apply_changes([ProfileChange(user=u, kind="set",
                                               vector=rng.random(4))
                                 for u in users])
            # batch i bumps the generation to i+1 and is recorded under it
            assert store.generation == index + 1
            touched_by_generation[index + 1] = set(users)
        return store, touched_by_generation

    def _expected_since(self, touched_by_generation, generation):
        rows = set()
        for gen, users in touched_by_generation.items():
            if gen > generation:
                rows |= users
        return sorted(rows)

    def test_exactly_at_the_floor_after_evictions(self, tmp_path):
        from repro.storage.profile_store import _DELTA_LOG_LIMIT
        num_batches = _DELTA_LOG_LIMIT + 6
        store, touched = self._store_with_batches(tmp_path, num_batches)
        floor = num_batches - _DELTA_LOG_LIMIT   # generation of newest dropped
        assert store._delta_floor == floor
        answer = store.touched_rows_since(floor)
        assert answer is not None
        assert answer.tolist() == self._expected_since(touched, floor)

    def test_one_below_the_floor_is_unknown(self, tmp_path):
        from repro.storage.profile_store import _DELTA_LOG_LIMIT
        num_batches = _DELTA_LOG_LIMIT + 6
        store, _ = self._store_with_batches(tmp_path, num_batches)
        floor = num_batches - _DELTA_LOG_LIMIT
        assert store.touched_rows_since(floor - 1) is None
        assert store.touched_rows_since(0) is None

    def test_future_generation_is_unknown_current_is_empty(self, tmp_path):
        store, _ = self._store_with_batches(tmp_path, 3)
        current = store.generation
        # nothing changed since *now*
        assert store.touched_rows_since(current).tolist() == []
        # a generation this store has not reached yet cannot be vouched for
        assert store.touched_rows_since(current + 1) is None

    def test_window_interior_is_exact_without_evictions(self, tmp_path):
        store, touched = self._store_with_batches(tmp_path, 5)
        for generation in range(0, 6):
            answer = store.touched_rows_since(generation)
            assert answer is not None
            assert answer.tolist() == self._expected_since(touched, generation)

    def test_fresh_handle_floor_is_the_open_generation(self, tmp_path):
        """Opening a store by path starts an empty history anchored at the
        current generation: that generation answers 'nothing changed', one
        before it answers 'unknown'."""
        store, _ = self._store_with_batches(tmp_path, 3)
        reopened = OnDiskProfileStore(store.base_dir)
        assert reopened.generation == 3
        assert reopened.touched_rows_since(3).tolist() == []
        assert reopened.touched_rows_since(2) is None


class TestPartitionRollupBoundary(TestDeltaLogBoundary):
    """``touched_partitions_since`` at the same window edges, pinned exactly.

    The partition rollup inherits the row-level ``None`` contract verbatim
    — it must never widen "unknown" into "clean" — and where the rows *are*
    known it reports exactly the partitions holding a touched row under the
    caller-supplied assignment.  Reuses the delta-log harness so the two
    boundary suites stay pinned to the same generations.
    """

    #: 80 users spread over 5 partitions of 16 contiguous rows each.
    _ASSIGNMENT = np.repeat(np.arange(5, dtype=np.int64), 16)

    def _expected_partitions(self, touched_by_generation, generation):
        rows = self._expected_since(touched_by_generation, generation)
        return sorted({int(self._ASSIGNMENT[row]) for row in rows})

    def test_exactly_at_the_floor_after_evictions(self, tmp_path):
        from repro.storage.profile_store import _DELTA_LOG_LIMIT
        num_batches = _DELTA_LOG_LIMIT + 6
        store, touched = self._store_with_batches(tmp_path, num_batches)
        floor = num_batches - _DELTA_LOG_LIMIT
        answer = store.touched_partitions_since(floor, self._ASSIGNMENT)
        assert answer is not None
        assert answer.tolist() == self._expected_partitions(touched, floor)

    def test_one_below_the_floor_is_unknown(self, tmp_path):
        from repro.storage.profile_store import _DELTA_LOG_LIMIT
        num_batches = _DELTA_LOG_LIMIT + 6
        store, _ = self._store_with_batches(tmp_path, num_batches)
        floor = num_batches - _DELTA_LOG_LIMIT
        assert store.touched_partitions_since(floor - 1,
                                              self._ASSIGNMENT) is None
        assert store.touched_partitions_since(0, self._ASSIGNMENT) is None

    def test_future_generation_is_unknown_current_is_empty(self, tmp_path):
        store, _ = self._store_with_batches(tmp_path, 3)
        current = store.generation
        assert store.touched_partitions_since(
            current, self._ASSIGNMENT).tolist() == []
        assert store.touched_partitions_since(current + 1,
                                              self._ASSIGNMENT) is None

    def test_window_interior_is_exact_without_evictions(self, tmp_path):
        store, touched = self._store_with_batches(tmp_path, 5)
        for generation in range(0, 6):
            answer = store.touched_partitions_since(generation,
                                                    self._ASSIGNMENT)
            assert answer is not None
            assert answer.tolist() == self._expected_partitions(touched,
                                                                generation)

    def test_fresh_handle_floor_is_the_open_generation(self, tmp_path):
        store, _ = self._store_with_batches(tmp_path, 3)
        reopened = OnDiskProfileStore(store.base_dir)
        assert reopened.touched_partitions_since(
            3, self._ASSIGNMENT).tolist() == []
        assert reopened.touched_partitions_since(2, self._ASSIGNMENT) is None

    def test_wrong_length_assignment_is_rejected(self, tmp_path):
        """A stale assignment (wrong row count) raises — even when nothing
        changed, so repartitioned callers fail loudly, not intermittently."""
        store, _ = self._store_with_batches(tmp_path, 3)
        with pytest.raises(ValueError, match="partition_of maps"):
            store.touched_partitions_since(3, self._ASSIGNMENT[:-1])
        with pytest.raises(ValueError, match="partition_of maps"):
            store.touched_partitions_since(1, np.zeros(81, dtype=np.int64))


class TestToggleAndCapacity:
    def test_incremental_disabled_never_reuses(self, tmp_path):
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=17)
        runner, _ = _runner(tmp_path, profiles, incremental_phase4=False)
        graph = KNNGraph.random(NUM_USERS, 5, seed=17)
        for iteration in range(3):
            result = runner.run(iteration, graph)
            graph = result.graph
            assert result.full_rescore is True
            assert result.reused_scores == 0
            assert result.similarity_evaluations == result.num_candidate_tuples
        assert runner.score_cache.keys is None

    def test_tiny_capacity_forces_full_rescore_every_iteration(self, tmp_path):
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=19)
        runner, _ = _runner(tmp_path, profiles, score_cache_entries=10)
        graph = KNNGraph.random(NUM_USERS, 5, seed=19)
        for iteration in range(3):
            result = runner.run(iteration, graph)
            graph = result.graph
            assert result.full_rescore is True
            assert result.reused_scores == 0
        assert runner.score_cache.evictions >= 3

    @pytest.mark.parametrize("shard_parallel", [False, True],
                             ids=["steps", "waves"])
    def test_one_over_capacity_iteration_costs_one_eviction(self, tmp_path,
                                                            shard_parallel):
        """Capacity is one comparison an iteration — the candidate count
        against the cap — on both phase-4 paths: the over-capacity iteration
        still reuses and still builds the same graph, leaves the cache and
        the pair map empty, counts one eviction, and costs the next
        iteration one full rescore."""
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=37)
        twin, _ = _runner(tmp_path / "twin", profiles,
                          shard_parallel=shard_parallel)
        capped, _ = _runner(tmp_path / "capped", profiles,
                            shard_parallel=shard_parallel)
        graphs = {twin: KNNGraph.random(NUM_USERS, 5, seed=37),
                  capped: KNNGraph.random(NUM_USERS, 5, seed=37)}

        def step(iteration, runner):
            result = runner.run(iteration, graphs[runner], update_queue=_queue(
                [ProfileChange(user=iteration, kind="set",
                               vector=np.full(6, 0.25 * (iteration + 1)))]))
            graphs[runner] = result.graph
            return result

        for iteration in range(2):
            step(iteration, twin)
            step(iteration, capped)
        assert capped._pair_generations
        capped.score_cache.max_entries = 10          # below any len(H)
        expected, over = step(2, twin), step(2, capped)
        assert over.graph.edge_fingerprint() == expected.graph.edge_fingerprint()
        assert over.reused_scores == expected.reused_scores > 0
        assert capped.score_cache.keys is None
        assert capped.score_cache.evictions == 1
        assert capped._pair_generations == {}
        capped.score_cache.max_entries = twin.score_cache.max_entries
        after = step(3, capped)
        assert after.full_rescore is True and after.reused_scores == 0
        assert after.graph.edge_fingerprint() == step(3, twin).graph.edge_fingerprint()
        assert step(4, capped).reused_scores == step(4, twin).reused_scores > 0
        assert capped.score_cache.evictions == 1

    def test_restored_cache_over_capacity_is_dropped(self, tmp_path):
        """Adopting a checkpoint cache must honour this run's capacity."""
        from repro.core.iteration import Phase4ScoreCache
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=29)
        runner, _ = _runner(tmp_path, profiles, score_cache_entries=4)
        big = Phase4ScoreCache(max_entries=1000)
        big.replace([np.arange(20, dtype=np.int64)], [np.zeros(20)],
                    "cosine", 0, NUM_USERS)
        runner.restore_score_cache(big)
        assert runner.score_cache.keys is None        # evicted at adoption
        assert runner.score_cache.max_entries == 4

    def test_capacity_does_not_change_results(self, tmp_path):
        profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=10,
                                            seed=23)
        fingerprints = []
        for entries in (10, 4_000_000):
            runner, _ = _runner(tmp_path / f"cap-{entries}", profiles,
                                score_cache_entries=entries)
            graph = KNNGraph.random(NUM_USERS, 5, seed=23)
            fps = []
            for iteration in range(3):
                result = runner.run(iteration, graph, update_queue=_queue(
                    _sparse_changes([iteration, iteration + 1], seed=iteration)))
                graph = result.graph
                fps.append(graph.edge_fingerprint())
            fingerprints.append(fps)
        assert fingerprints[0] == fingerprints[1]
