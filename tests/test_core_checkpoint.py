"""Tests for repro.core.checkpoint."""

import json
import os

import numpy as np
import pytest

from repro.core.checkpoint import (
    clone_profile_files,
    has_checkpoint,
    load_checkpoint,
    load_knn_graph,
    load_portable_checkpoint,
    load_score_cache,
    save_checkpoint,
    save_knn_graph,
    save_portable_checkpoint,
    save_score_cache,
    write_checkpoint_checksums,
)
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import Phase4ScoreCache
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore


@pytest.fixture
def scored_graph():
    graph = KNNGraph.random(60, 5, seed=3)
    # give edges distinct scores so equality checks are meaningful
    for index, (src, dst, _) in enumerate(list(graph.edges())):
        graph.add_candidate(src, dst, index * 0.001 + 0.1)
    return graph


class TestGraphSerialisation:
    def test_roundtrip_preserves_edges_and_scores(self, scored_graph, tmp_path):
        path = tmp_path / "graph.bin"
        save_knn_graph(path, scored_graph)
        loaded = load_knn_graph(path)
        assert loaded.num_vertices == scored_graph.num_vertices
        assert loaded.k == scored_graph.k
        assert loaded.edge_difference(scored_graph) == 0
        for v in (0, 13, 59):
            assert loaded.neighbor_scores(v) == pytest.approx(
                scored_graph.neighbor_scores(v))

    def test_empty_graph_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_knn_graph(path, KNNGraph(10, 3))
        loaded = load_knn_graph(path)
        assert loaded.num_vertices == 10
        assert loaded.num_edges == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTCHECK" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_knn_graph(path)

    def test_truncated_file_rejected(self, scored_graph, tmp_path):
        path = tmp_path / "graph.bin"
        save_knn_graph(path, scored_graph)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_knn_graph(path)


class TestCheckpointManifest:
    def test_save_and_load(self, scored_graph, tmp_path):
        save_checkpoint(tmp_path, scored_graph, iteration=4, metadata={"k": 5})
        assert has_checkpoint(tmp_path)
        graph, iteration, metadata = load_checkpoint(tmp_path)
        assert iteration == 4
        assert metadata == {"k": 5}
        assert graph.edge_difference(scored_graph) == 0

    def test_missing_checkpoint(self, tmp_path):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path)

    def test_manifest_graph_mismatch_detected(self, scored_graph, tmp_path):
        save_checkpoint(tmp_path, scored_graph, iteration=1)
        other = KNNGraph.random(20, 2, seed=1)
        save_knn_graph(tmp_path / "knn_graph_00001.bin", other)
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(tmp_path)

    def test_overwriting_keeps_latest(self, scored_graph, tmp_path):
        save_checkpoint(tmp_path, scored_graph, iteration=1)
        later = KNNGraph.random(60, 5, seed=9)
        save_checkpoint(tmp_path, later, iteration=2)
        graph, iteration, _ = load_checkpoint(tmp_path)
        assert iteration == 2
        assert graph.edge_difference(later) == 0


class TestScoreCacheSerialisation:
    def _cache(self, n=40, entries=200):
        cache = Phase4ScoreCache(max_entries=10_000)
        rng = np.random.default_rng(1)
        keys = np.unique(rng.integers(0, n * n, size=entries, dtype=np.int64))
        cache.replace([keys], [rng.random(len(keys))], "jaccard",
                      generation=7, num_vertices=n)
        return cache

    def test_roundtrip(self, tmp_path):
        cache = self._cache()
        path = tmp_path / "cache.bin"
        save_score_cache(path, cache)
        loaded = load_score_cache(path)
        assert loaded.measure == "jaccard"
        assert loaded.generation == 7
        assert loaded.num_vertices == cache.num_vertices
        assert loaded.max_entries == cache.max_entries
        np.testing.assert_array_equal(loaded.keys, cache.keys)
        np.testing.assert_array_equal(loaded.values, cache.values)

    def test_empty_cache_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_score_cache(path, Phase4ScoreCache(max_entries=5))
        loaded = load_score_cache(path)
        assert loaded.keys is None and loaded.generation is None
        assert loaded.max_entries == 5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTCACHE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_score_cache(path)

    def test_truncated_rejected(self, tmp_path):
        cache = self._cache()
        path = tmp_path / "cache.bin"
        save_score_cache(path, cache)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_score_cache(path)

    def test_negative_header_counts_rejected(self, tmp_path):
        cache = self._cache()
        path = tmp_path / "cache.bin"
        save_score_cache(path, cache)
        raw = bytearray(path.read_bytes())
        # corrupt num_entries (third int64 of the header) to -1
        raw[8 + 16:8 + 24] = np.int64(-1).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="corrupt header"):
            load_score_cache(path)


def _snapshot(store, dest):
    clone_profile_files(store.base_dir, dest)
    return dest


class TestProfileSnapshot:
    def test_sparse_v3_segments_are_hard_linked(self, tmp_path):
        profiles = generate_sparse_profiles(80, 200, items_per_user=10, seed=3)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles)
        dest = _snapshot(store, tmp_path / "snap")
        segments = sorted(store.base_dir.glob("profiles_seg_*.bin"))
        assert segments
        for segment in segments:
            assert os.stat(segment).st_ino == os.stat(dest / segment.name).st_ino
        # mutable files are copies, never links
        for name in ("profiles_meta.json", "profiles_journal_rows.bin",
                     "profiles_item_ids.bin"):
            assert (os.stat(store.base_dir / name).st_ino
                    != os.stat(dest / name).st_ino)

    def test_snapshot_immune_to_later_updates_and_compaction(self, tmp_path):
        """Journal appends and compaction segment rewrites on the live store
        must not leak into the snapshot — this is what the atomic
        temp-file+rename replacement in the store buys."""
        profiles = generate_sparse_profiles(80, 200, items_per_user=10, seed=3)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles,
                                          journal_limit=4)
        rng = np.random.default_rng(5)
        store.apply_changes([ProfileChange(user=int(u), kind="add",
                                           item=int(rng.integers(0, 200)))
                             for u in range(3)])
        dest = _snapshot(store, tmp_path / "snap")
        frozen = OnDiskProfileStore(dest)
        expected = {user: frozen.load_users([user]).get(user)
                    for user in range(80)}
        # churn past the journal limit so the live store compacts (rewrites
        # segment files) and appends more journal entries
        for burst in range(3):
            store.apply_changes([ProfileChange(user=int(u), kind="add",
                                               item=int(rng.integers(0, 200)))
                                 for u in range(burst * 10, burst * 10 + 8)])
        frozen_after = OnDiskProfileStore(dest)
        for user in range(80):
            assert frozen_after.load_users([user]).get(user) == expected[user]

    def test_snapshot_onto_the_live_store_rejected(self, tmp_path):
        """The copy loop unlinks targets first; snapshotting a store onto
        its own directory would destroy it, so it must refuse up front."""
        profiles = generate_sparse_profiles(30, 100, items_per_user=5, seed=3)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles)
        before = store.load_users([0]).get(0)
        with pytest.raises(ValueError, match="source directory itself"):
            _snapshot(store, store.base_dir)
        # and the store is untouched
        assert store.load_users([0]).get(0) == before

    def test_dense_snapshot_is_a_copy(self, tmp_path):
        profiles = generate_dense_profiles(40, dim=6, seed=3)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles)
        dest = _snapshot(store, tmp_path / "snap")
        # dense rows are updated in place through a memmap — linking would
        # corrupt old checkpoints, so the matrix must be copied
        assert (os.stat(store.base_dir / "profiles_dense.bin").st_ino
                != os.stat(dest / "profiles_dense.bin").st_ino)
        store.apply_changes([ProfileChange(user=0, kind="set",
                                           vector=np.full(6, 9.0))])
        frozen = OnDiskProfileStore(dest)
        assert not np.allclose(frozen.load_users([0]).get(0), np.full(6, 9.0))


class TestPortableCheckpoint:
    def test_save_and_load_roundtrip(self, scored_graph, tmp_path):
        profiles = generate_sparse_profiles(80, 200, items_per_user=10, seed=9)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles)
        cache = Phase4ScoreCache()
        cache.replace([np.asarray([5, 9], dtype=np.int64)],
                      [np.asarray([0.5, 0.25])], "jaccard", 0, 60)
        save_portable_checkpoint(tmp_path / "ckpt", scored_graph, 3,
                                 profile_store=store, score_cache=cache,
                                 metadata={"note": "x"})
        graph, iteration, metadata, loaded_store, loaded_cache = (
            load_portable_checkpoint(tmp_path / "ckpt"))
        assert iteration == 3 and metadata == {"note": "x"}
        assert graph.edge_difference(scored_graph) == 0
        assert loaded_store.num_users == 80
        assert loaded_store.load_users([4]).get(4) == store.load_users([4]).get(4)
        np.testing.assert_array_equal(loaded_cache.keys, cache.keys)

    def test_without_store_and_cache(self, scored_graph, tmp_path):
        save_portable_checkpoint(tmp_path, scored_graph, 1)
        graph, iteration, _, store, cache = load_portable_checkpoint(tmp_path)
        assert iteration == 1 and store is None and cache is None

    def test_engine_checkpoint_resume_is_bit_identical(self, tmp_path):
        """Interrupt after 2 iterations, resume from the portable checkpoint
        for 2 more (same churn feed): identical to an uninterrupted run."""
        profiles = generate_sparse_profiles(100, 250, items_per_user=10,
                                            num_communities=4, seed=31)
        config = EngineConfig(k=5, num_partitions=4, seed=31)

        def make_feed(rng):
            def feed(_iteration):
                users = rng.choice(100, size=6, replace=False)
                return [ProfileChange(user=int(u), kind="add",
                                      item=int(rng.integers(0, 250)))
                        for u in users]
            return feed

        with KNNEngine(profiles, config) as engine:
            uninterrupted = engine.run(
                num_iterations=4,
                profile_change_feed=make_feed(np.random.default_rng(8)))

        rng = np.random.default_rng(8)
        with KNNEngine(profiles, config) as engine:
            engine.run(num_iterations=2, profile_change_feed=make_feed(rng))
            engine.save_checkpoint(tmp_path / "ckpt")

        with KNNEngine.from_checkpoint(tmp_path / "ckpt", config=config) as resumed:
            assert resumed.iterations_run == 2
            run = resumed.run(num_iterations=2, profile_change_feed=make_feed(rng))
        assert run.final_graph.edge_difference(
            uninterrupted.final_graph) == 0
        # save_checkpoint pruned the churn-touched pairs and advanced the
        # cache to the snapshot generation, so reuse continues seamlessly
        # from the very first resumed iteration
        assert run.iterations[0].full_rescore is False
        assert run.iterations[0].reused_scores > 0
        assert run.iterations[1].reused_scores > 0

    def test_from_checkpoint_without_snapshot_rejected(self, scored_graph,
                                                       tmp_path):
        save_checkpoint(tmp_path, scored_graph, iteration=1)
        with pytest.raises(ValueError, match="no profile snapshot"):
            KNNEngine.from_checkpoint(tmp_path)

    def test_generation_collision_does_not_reuse_stale_scores(self, tmp_path):
        """Checkpoint saved after churn was applied (cache one generation
        behind P(t)): the fresh working store also numbers from 0, so a
        naively restored cache would claim 'nothing changed' and reuse
        pre-churn scores.  save_checkpoint instead prunes the touched pairs
        and advances the cache to the snapshot generation, so the resumed
        run reuses only still-valid scores — and stays bit-identical."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10,
                                            num_communities=4, seed=41)
        config = EngineConfig(k=5, num_partitions=4, seed=41)
        rng = np.random.default_rng(6)
        churn = [ProfileChange(user=int(u), kind="add",
                               item=int(rng.integers(0, 250)))
                 for u in rng.choice(90, size=20, replace=False)]

        with KNNEngine(profiles, config) as engine:
            engine.enqueue_profile_changes(churn)
            engine.run_iteration()
            uninterrupted = engine.run_iteration().graph

        with KNNEngine(profiles, config) as engine:
            engine.enqueue_profile_changes(churn)
            engine.run_iteration()            # cache gen 0, store gen 1
            engine.save_checkpoint(tmp_path / "ckpt")

        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            result = resumed.run_iteration()
        assert result.graph.edge_difference(uninterrupted) == 0
        # the pruned cache was restored: churn-touched pairs rescored,
        # everything else reused — never a stale score
        assert result.full_rescore is False
        assert result.reused_scores > 0

    def test_unknown_deltas_at_save_time_drop_the_cache_on_resume(self, tmp_path):
        """When the store cannot enumerate the rows touched since scoring
        (here: a journal compaction truncated the delta history), the cache
        is saved as-is and the resume generation check drops it — one full
        rescore, never a stale reuse."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10,
                                            num_communities=4, seed=59)
        config = EngineConfig(k=5, num_partitions=4, seed=59)
        rng = np.random.default_rng(6)
        # > journal limit (max(64, 90/4) = 64 rows) so phase 5 compacts
        churn = [ProfileChange(user=int(u), kind="add",
                               item=int(rng.integers(0, 250)))
                 for u in rng.choice(90, size=70, replace=False)]

        with KNNEngine(profiles, config) as engine:
            engine.enqueue_profile_changes(churn)
            engine.run_iteration()
            uninterrupted = engine.run_iteration().graph

        with KNNEngine(profiles, config) as engine:
            engine.enqueue_profile_changes(churn)
            engine.run_iteration()
            assert engine.profile_store.touched_rows_since(0) is None
            engine.save_checkpoint(tmp_path / "ckpt")

        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            result = resumed.run_iteration()
        assert result.full_rescore is True
        assert result.reused_scores == 0
        assert result.graph.edge_difference(uninterrupted) == 0

    def test_from_checkpoint_workdir_collision_rejected(self, tmp_path):
        profiles = generate_sparse_profiles(90, 250, items_per_user=10, seed=61)
        config = EngineConfig(k=5, num_partitions=4, seed=61)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            engine.save_checkpoint(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="overwrite the snapshot"):
            KNNEngine.from_checkpoint(tmp_path / "ckpt", config=config,
                                      workdir=tmp_path / "ckpt")
        # the snapshot is untouched and still resumable
        with KNNEngine.from_checkpoint(tmp_path / "ckpt", config=config) as ok:
            ok.run_iteration()

    def test_cache_rebased_when_it_matches_the_snapshot(self, tmp_path):
        """No churn between scoring and checkpointing: the cache describes
        exactly the snapshot profiles, so resume re-keys it to the fresh
        store and the first resumed iteration reuses immediately."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10,
                                            num_communities=4, seed=43)
        config = EngineConfig(k=5, num_partitions=4, seed=43)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            uninterrupted = engine.run_iteration().graph

        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()            # cache gen 0 == store gen 0
            engine.save_checkpoint(tmp_path / "ckpt")

        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            result = resumed.run_iteration()
        assert result.full_rescore is False
        assert result.reused_scores > 0
        assert result.graph.edge_difference(uninterrupted) == 0

    def test_adopted_cache_is_read_only_and_survives_a_round_trip(self, tmp_path):
        """The cache adopts phase 4's own arrays (H's keys, the score slab),
        so they are frozen; saving, advancing and loading copy, and a
        resumed run reuses exactly what its never-checkpointed twin does."""
        profiles = generate_dense_profiles(100, dim=8, num_communities=4, seed=47)
        config = EngineConfig(k=5, num_partitions=4, seed=47)

        def feed(iteration):
            return [ProfileChange(user=iteration, kind="set",
                                  vector=np.full(8, 0.1 * (iteration + 1)))]

        with KNNEngine(profiles, config) as engine:
            twin = engine.run(num_iterations=4, profile_change_feed=feed)

        with KNNEngine(profiles, config) as engine:
            engine.run(num_iterations=2, profile_change_feed=feed)
            cache = engine._iteration_runner.score_cache
            for array in (cache.keys, cache.values):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
            engine.save_checkpoint(tmp_path / "ckpt")

        with KNNEngine.from_checkpoint(tmp_path / "ckpt", config=config) as resumed:
            results = resumed.run(num_iterations=2,
                                  profile_change_feed=feed).iterations
        for result, expected in zip(results, twin.iterations[2:]):
            assert result.reused_scores == expected.reused_scores > 0
            assert (result.similarity_evaluations
                    == expected.similarity_evaluations)
            assert (result.graph.edge_fingerprint()
                    == expected.graph.edge_fingerprint())

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_pending_queued_updates_survive_the_checkpoint(self, tmp_path, kind):
        """Changes buffered but not yet applied at save time must be applied
        by the resumed run's next iteration, exactly as an uninterrupted
        run would have."""
        if kind == "dense":
            profiles = generate_dense_profiles(90, dim=6, num_communities=3,
                                               seed=53)
            pending = [ProfileChange(user=4, kind="set",
                                     vector=np.arange(6, dtype=np.float64))]
        else:
            profiles = generate_sparse_profiles(90, 250, items_per_user=10,
                                                seed=53)
            pending = [ProfileChange(user=4, kind="add", item=123),
                       ProfileChange(user=9, kind="remove", item=1)]
        config = EngineConfig(k=5, num_partitions=4, seed=53)

        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            engine.enqueue_profile_changes(pending)
            uninterrupted_result = engine.run_iteration()
            assert uninterrupted_result.profile_updates_applied == len(
                {c.user for c in pending})
            uninterrupted = uninterrupted_result.graph

        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            engine.enqueue_profile_changes(pending)
            engine.save_checkpoint(tmp_path / "ckpt")
            assert len(engine.update_queue) == len(pending)  # peek, not drain

        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            assert len(resumed.update_queue) == len(pending)
            result = resumed.run_iteration()
        assert result.profile_updates_applied == len({c.user for c in pending})
        assert result.graph.edge_difference(uninterrupted) == 0

    def test_reserved_metadata_keys_rejected(self, tmp_path):
        """Caller metadata must not shadow the engine's own manifest state
        (a shadowed pending_updates would lose queued churn on resume)."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10, seed=67)
        with KNNEngine(profiles, EngineConfig(k=5, num_partitions=4,
                                              seed=67)) as engine:
            engine.run_iteration()
            with pytest.raises(ValueError, match="reserved"):
                engine.save_checkpoint(tmp_path / "ckpt",
                                       metadata={"pending_updates": ["x"]})
            with pytest.raises(ValueError, match="reserved"):
                engine.save_checkpoint(tmp_path / "ckpt",
                                       metadata={"engine_config": {}})
            # non-reserved metadata still flows through
            engine.save_checkpoint(tmp_path / "ckpt", metadata={"note": "y"})
        _, _, metadata, _, _ = load_portable_checkpoint(tmp_path / "ckpt")
        assert metadata["note"] == "y"
        assert "engine_config" in metadata

    def test_from_checkpoint_restores_saved_config(self, tmp_path):
        profiles = generate_sparse_profiles(90, 250, items_per_user=10, seed=47)
        config = EngineConfig(k=7, num_partitions=5, heuristic="degree-low-high",
                              measure="overlap", seed=47)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            engine.save_checkpoint(tmp_path / "ckpt")
        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            assert resumed.config == config

    def test_from_checkpoint_without_saved_config_rejected(self, scored_graph,
                                                           tmp_path):
        profiles = generate_sparse_profiles(80, 200, items_per_user=10, seed=9)
        store = OnDiskProfileStore.create(tmp_path / "store", profiles)
        # a checkpoint written without the engine wrapper has no config
        save_portable_checkpoint(tmp_path / "ckpt", scored_graph, 1,
                                 profile_store=store)
        with pytest.raises(ValueError, match="engine_config"):
            KNNEngine.from_checkpoint(tmp_path / "ckpt")


class TestZeroCopyResume:
    """``from_checkpoint`` hard-links the snapshot back — it never loads
    ``P(t)`` into memory, and the checkpoint survives the resumed run."""

    def _checkpointed_engine(self, tmp_path, kind="sparse", seed=71, **config_kwargs):
        if kind == "sparse":
            profiles = generate_sparse_profiles(120, 300, items_per_user=10,
                                                num_communities=4, seed=seed)
        else:
            profiles = generate_dense_profiles(120, dim=6, num_communities=4,
                                               seed=seed)
        config = EngineConfig(k=5, num_partitions=4, seed=seed, **config_kwargs)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            engine.save_checkpoint(tmp_path / "ckpt")
        return tmp_path / "ckpt", profiles, config

    def test_sparse_segments_resume_as_hard_links(self, tmp_path):
        ckpt, _, _ = self._checkpointed_engine(tmp_path, "sparse")
        with KNNEngine.from_checkpoint(ckpt) as resumed:
            snapshot = ckpt / "profiles"
            working = resumed.workdir / "profiles"
            segments = sorted(snapshot.glob("profiles_seg_*.bin"))
            assert segments
            for segment in segments:
                assert (os.stat(segment).st_ino
                        == os.stat(working / segment.name).st_ino)
            # mutable files are copies, never links
            for name in ("profiles_meta.json", "profiles_journal_rows.bin",
                         "profiles_item_ids.bin"):
                assert (os.stat(snapshot / name).st_ino
                        != os.stat(working / name).st_ino)
            stats = resumed.resume_clone_stats
            assert stats is not None
            assert stats.linked_files == len(segments)
            # every byte that was eligible for linking was linked — nothing
            # resembling a full profile copy happened
            segment_bytes = sum(s.stat().st_size for s in segments)
            assert stats.linked_bytes == segment_bytes
            assert stats.copied_bytes < segment_bytes

    def test_dense_matrix_resume_is_a_copy_and_isolated(self, tmp_path):
        """Dense rows are updated in place through a memmap, so the matrix
        must be copied — and resumed-run updates must not leak back."""
        ckpt, _, _ = self._checkpointed_engine(tmp_path, "dense")
        frozen_before = OnDiskProfileStore(ckpt / "profiles")
        expected = np.array(frozen_before.load_users([3]).get(3))
        with KNNEngine.from_checkpoint(ckpt) as resumed:
            assert (os.stat(ckpt / "profiles" / "profiles_dense.bin").st_ino
                    != os.stat(resumed.workdir / "profiles"
                               / "profiles_dense.bin").st_ino)
            resumed.enqueue_profile_change(ProfileChange(
                user=3, kind="set", vector=np.full(6, 42.0)))
            resumed.run_iteration()
        frozen = OnDiskProfileStore(ckpt / "profiles")
        np.testing.assert_array_equal(frozen.load_users([3]).get(3), expected)

    def test_resumed_churn_and_compaction_leave_the_checkpoint_intact(self, tmp_path):
        """The resumed store shares inodes with the snapshot; its journal
        appends and compaction segment rewrites must never show through
        (atomic replace gives replaced files fresh inodes)."""
        ckpt, _, _ = self._checkpointed_engine(tmp_path, "sparse",
                                               profile_segment_rows=30)
        frozen = OnDiskProfileStore(ckpt / "profiles")
        expected = {user: frozen.load_users([user]).get(user)
                    for user in range(120)}
        rng = np.random.default_rng(9)
        with KNNEngine.from_checkpoint(ckpt) as resumed:
            # enough churn to overflow the journal and force compaction
            # (segment files rewritten) in the hard-linked working store
            for _ in range(3):
                resumed.enqueue_profile_changes(
                    [ProfileChange(user=int(u), kind="add",
                                   item=int(rng.integers(0, 300)))
                     for u in rng.choice(120, size=40, replace=False)])
                resumed.run_iteration()
        frozen_after = OnDiskProfileStore(ckpt / "profiles")
        for user in range(120):
            assert frozen_after.load_users([user]).get(user) == expected[user]

    @pytest.mark.parametrize("saved,resumed_backend", [
        ("process", "serial"), ("serial", "process")])
    def test_backend_override_at_resume_is_bit_identical(self, tmp_path, saved,
                                                         resumed_backend):
        """A run checkpointed under one backend and resumed under another
        must match the uninterrupted run bit for bit — backends never
        change results, and neither does the resume path."""
        profiles = generate_sparse_profiles(100, 250, items_per_user=10,
                                            num_communities=4, seed=83)
        base = EngineConfig(k=5, num_partitions=4, seed=83)

        def make_feed(rng):
            def feed(_iteration):
                users = rng.choice(100, size=6, replace=False)
                return [ProfileChange(user=int(u), kind="add",
                                      item=int(rng.integers(0, 250)))
                        for u in users]
            return feed

        with KNNEngine(profiles, base) as engine:
            uninterrupted = engine.run(
                num_iterations=4,
                profile_change_feed=make_feed(np.random.default_rng(2)))

        rng = np.random.default_rng(2)
        saved_config = base.with_overrides(backend=saved, num_workers=2)
        with KNNEngine(profiles, saved_config) as engine:
            engine.run(num_iterations=2, profile_change_feed=make_feed(rng))
            engine.save_checkpoint(tmp_path / "ckpt")

        override = base.with_overrides(backend=resumed_backend, num_workers=2)
        with KNNEngine.from_checkpoint(tmp_path / "ckpt",
                                       config=override) as engine:
            assert engine.config.backend == resumed_backend
            run = engine.run(num_iterations=2, profile_change_feed=make_feed(rng))
        assert run.final_graph.edge_difference(uninterrupted.final_graph) == 0
        assert (run.final_graph.edge_fingerprint()
                == uninterrupted.final_graph.edge_fingerprint())

    def test_engine_accepts_an_on_disk_store_directly(self, tmp_path):
        """Constructing an engine over an existing OnDiskProfileStore clones
        it zero-copy instead of round-tripping through memory."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10, seed=89)
        source = OnDiskProfileStore.create(tmp_path / "store", profiles)
        config = EngineConfig(k=5, num_partitions=4, seed=89)
        with KNNEngine(source, config) as engine:
            assert engine.resume_clone_stats.linked_files > 0
            from_disk = engine.run_iteration().graph.edge_fingerprint()
        with KNNEngine(profiles, config) as engine:
            assert engine.resume_clone_stats is None
            from_memory = engine.run_iteration().graph.edge_fingerprint()
        assert from_disk == from_memory
        # the source store is untouched and still loadable
        assert source.load_users([0]).get(0) == profiles.get(0)


class TestResumeRun:
    def test_resumed_run_matches_uninterrupted_run(self, tmp_path):
        """Stopping after 2 iterations and resuming for 2 more must equal a 4-iteration run."""
        profiles = generate_dense_profiles(140, dim=8, num_communities=4, seed=77)
        config = EngineConfig(k=5, num_partitions=4, seed=77)

        with KNNEngine(profiles, config) as engine:
            uninterrupted = engine.run(num_iterations=4).final_graph

        with KNNEngine(profiles, config) as engine:
            engine.run(num_iterations=2)
            save_checkpoint(tmp_path, engine.graph, iteration=engine.iterations_run)

        graph, iteration, _ = load_checkpoint(tmp_path)
        assert iteration == 2
        with KNNEngine(profiles, config, initial_graph=graph) as resumed:
            final = resumed.run(num_iterations=2).final_graph

        assert final.edge_difference(uninterrupted) == 0


#: ``engine_config`` as commit 6beeaab (PR 14) wrote it into a checkpoint
#: manifest — captured from a run there — before ``adaptive_score_cache`` and
#: ``num_threads`` were retired.
_PARENT_ENGINE_CONFIG = {
    "adaptive_score_cache": True, "backend": "thread",
    "dirty_scheduling": True, "disk_model": "ssd", "durable": False,
    "heuristic": "sequential", "include_direct_edges": True,
    "incremental_phase4": True, "k": 4, "max_pairs_per_bridge": None,
    "max_resident_partitions": 2, "measure": None,
    "memory_budget_bytes": None, "num_partitions": 3, "num_threads": 3,
    "num_workers": 2, "partitioner": "contiguous",
    "profile_segment_rows": None, "score_cache_entries": 4000000, "seed": 9,
    "shard_parallel": False, "shard_timeout_seconds": None,
}


def _rewrite_saved_config(directory, **changes):
    """Make a checkpoint carry the parent commit's ``engine_config`` (plus
    ``changes``), re-sealing the directory when it is a sealed epoch."""
    manifest_path = directory / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["metadata"]["engine_config"] = {**_PARENT_ENGINE_CONFIG, **changes}
    manifest_path.write_text(json.dumps(manifest, indent=2))
    if (directory / "checksums.json").exists():
        write_checkpoint_checksums(directory)


class TestParentCommitManifest:
    """A checkpoint or epoch commit written before two knobs were retired
    must resume — the manifest is outside input, not a constructor call."""

    def _checkpoint(self, tmp_path, **changes):
        profiles = generate_dense_profiles(60, dim=4, seed=1)
        config = EngineConfig(k=4, num_partitions=3, seed=9)
        with KNNEngine(profiles, config) as engine:
            fingerprint = engine.run_iteration().graph.edge_fingerprint()
            engine.save_checkpoint(tmp_path / "ckpt")
            following = engine.run_iteration().graph.edge_fingerprint()
        _rewrite_saved_config(tmp_path / "ckpt", **changes)
        return fingerprint, following

    def test_thread_width_carries_over_and_the_run_continues(self, tmp_path):
        fingerprint, following = self._checkpoint(tmp_path)
        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            assert resumed.config == EngineConfig(
                k=4, num_partitions=3, seed=9, backend="thread", num_workers=3)
            assert resumed.graph.edge_fingerprint() == fingerprint
            assert resumed.run_iteration().graph.edge_fingerprint() == following

    def test_thread_count_of_another_backend_is_dropped(self, tmp_path):
        self._checkpoint(tmp_path, backend="serial", num_threads=8)
        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            assert resumed.config.backend == "serial"
            assert resumed.config.num_workers == 2

    def test_unknown_key_is_named_with_its_checkpoint(self, tmp_path):
        self._checkpoint(tmp_path, warp_factor=9)
        with pytest.raises(ValueError, match="warp_factor") as failure:
            KNNEngine.from_checkpoint(tmp_path / "ckpt")
        assert str(tmp_path / "ckpt") in str(failure.value)

    def test_serving_runtime_recovers_a_parent_commit_directory(self, tmp_path):
        from repro.service import ServingRuntime
        profiles = generate_dense_profiles(60, dim=4, seed=1)
        config = EngineConfig(k=4, num_partitions=3, seed=9, durable=True)
        workdir = tmp_path / "svc"
        with ServingRuntime(profiles, config, workdir=workdir) as service:
            assert service.submit_updates(
                [ProfileChange(user=0, kind="set", vector=np.ones(4))]).accepted
            service.stop(drain=True)
            epochs = service.engine.sealed_epochs()
            served = service.neighbors(0)
        assert len(epochs) >= 2
        for _, path in epochs:
            _rewrite_saved_config(path, durable=True)
        recovered = ServingRuntime.recover(workdir)
        try:
            assert recovered.current_epoch == epochs[-1][0]
            assert recovered.engine.config == config.with_overrides(
                backend="thread", num_workers=3)
            assert recovered.neighbors(0) == served
        finally:
            recovered.close()
