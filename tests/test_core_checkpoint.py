"""Tests for repro.core.checkpoint."""

import json
import os

import numpy as np
import pytest

from repro.core.checkpoint import (
    clone_profile_files,
    load_checkpoint,
    load_knn_graph,
    load_portable_checkpoint,
    save_checkpoint,
    save_knn_graph,
    save_portable_checkpoint,
    write_checkpoint_checksums,
)
from repro.core.config import EngineConfig
from repro.core.engine import (_RETIRED_KNOBS, KNNEngine,
                               _config_from_manifest)
from repro.graph.knn_graph import KNNGraph
from repro.pigraph.traversal import HEURISTICS
from repro.service import ServingRuntime
from repro.service.supervisor import RefreshSupervisor
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


class TestLoadingMergesNothing:
    """The graph file is ``G(t)``'s ranked arrays, so resuming places them
    as they are: with every merge path refusing to run, both resume paths
    still succeed, to the saved graph."""

    @staticmethod
    def _refuse_merges(patch):
        def refuse(*args, **kwargs):
            raise AssertionError("loading a graph merged candidates")

        for name in ("_merge_batch", "_merge_sorted", "add_candidate"):
            patch.setattr(KNNGraph, name, refuse)

    def test_from_checkpoint(self, tmp_path, monkeypatch):
        with KNNEngine(generate_dense_profiles(60, dim=4, seed=1),
                       EngineConfig(k=5, num_partitions=3, seed=1)) as engine:
            engine.run_iteration()
            engine.save_checkpoint(tmp_path / "ckpt")
            expected = engine.graph.edge_fingerprint()
        with monkeypatch.context() as patch:
            self._refuse_merges(patch)
            resumed = KNNEngine.from_checkpoint(tmp_path / "ckpt")
        with resumed:
            assert resumed.graph.edge_fingerprint() == expected

    def test_serving_recover(self, tmp_path, monkeypatch):
        monkeypatch.setattr(RefreshSupervisor, "start", lambda supervisor: None)
        runtime = ServingRuntime(generate_dense_profiles(60, dim=4, seed=1),
                                 EngineConfig(k=5, num_partitions=3, seed=1),
                                 workdir=tmp_path / "svc").start()
        try:
            assert runtime.submit_updates([ProfileChange(
                user=3, kind="set", vector=np.ones(4))]).accepted
            runtime.supervisor.run_one_refresh()
            expected = runtime.engine.graph.edge_fingerprint()
        finally:
            runtime.close()
        with monkeypatch.context() as patch:
            self._refuse_merges(patch)
            recovered = ServingRuntime.recover(tmp_path / "svc")
        with recovered:
            assert recovered.current_epoch == recovered.engine.iterations_run == 1
            assert recovered.engine.graph.edge_fingerprint() == expected


class TestCheckpointManifest:
    def test_save_and_load(self, scored_graph, tmp_path):
        save_checkpoint(tmp_path, scored_graph, iteration=4, metadata={"k": 5})
        graph, iteration, metadata = load_checkpoint(tmp_path)
        assert iteration == 4
        assert metadata == {"k": 5}
        assert graph.edge_difference(scored_graph) == 0

    def test_missing_checkpoint(self, tmp_path):
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
        save_portable_checkpoint(tmp_path / "ckpt", scored_graph, 3,
                                 profile_store=store, metadata={"note": "x"})
        graph, iteration, metadata, loaded_store = (
            load_portable_checkpoint(tmp_path / "ckpt"))
        assert iteration == 3 and metadata == {"note": "x"}
        assert graph.edge_difference(scored_graph) == 0
        assert loaded_store.num_users == 80
        assert loaded_store.load_users([4]).get(4) == store.load_users([4]).get(4)
        assert {path.name for path in (tmp_path / "ckpt").iterdir()} == {
            "checkpoint.json", "knn_graph_00003.bin", "profiles"}

    def test_without_store_and_cache(self, scored_graph, tmp_path):
        save_portable_checkpoint(tmp_path, scored_graph, 1)
        graph, iteration, _, store = load_portable_checkpoint(tmp_path)
        assert iteration == 1 and store is None

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
        # nothing carried is checkpointed: the first resumed iteration
        # rescores everything, and reuse resumes from its commit on
        assert run.iterations[0].full_rescore is True
        assert run.iterations[0].reused_scores == 0
        assert run.iterations[1].reused_scores > 0

    def test_from_checkpoint_without_snapshot_rejected(self, scored_graph,
                                                       tmp_path):
        save_checkpoint(tmp_path, scored_graph, iteration=1)
        with pytest.raises(ValueError, match="no profile snapshot"):
            KNNEngine.from_checkpoint(tmp_path)

    def test_generation_collision_does_not_reuse_stale_scores(self, tmp_path):
        """Checkpoint saved after churn was applied (cache one generation
        behind P(t)): a restored cache would have to be pruned of the
        touched pairs to stay valid.  No cache is saved, so the resumed run
        reuses nothing stale — it rescores everything once and stays
        bit-identical."""
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
        assert result.full_rescore is True
        assert result.reused_scores == 0

    def test_unknown_deltas_at_save_time_drop_the_cache_on_resume(self, tmp_path):
        """When the store cannot enumerate the rows touched since scoring
        (here: a reload truncated the delta history) the resume is no
        different: one full rescore, never a stale reuse."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10,
                                            num_communities=4, seed=59)
        config = EngineConfig(k=5, num_partitions=4, seed=59)
        rng = np.random.default_rng(6)
        # > journal limit (max(64, 90/4) = 64 rows), so phase 5 compacts too
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
            engine.profile_store.reload()
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

    def test_a_resume_without_churn_rescores_once_then_reuses(self, tmp_path):
        """No churn between scoring and checkpointing: the scores would
        still describe the snapshot profiles, but they are not saved — the
        first resumed iteration rescores, the second reuses like the twin."""
        profiles = generate_sparse_profiles(90, 250, items_per_user=10,
                                            num_communities=4, seed=43)
        config = EngineConfig(k=5, num_partitions=4, seed=43)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            uninterrupted = [engine.run_iteration() for _ in range(2)]

        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()            # cache gen 0 == store gen 0
            engine.save_checkpoint(tmp_path / "ckpt")

        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            results = [resumed.run_iteration() for _ in range(2)]
        assert results[0].full_rescore is True
        assert results[0].reused_scores == 0
        assert results[1].reused_scores == uninterrupted[1].reused_scores > 0
        for result, expected in zip(results, uninterrupted):
            assert result.graph.edge_difference(expected.graph) == 0

    def test_adopted_cache_is_read_only_and_a_resume_matches_the_twin(
            self, tmp_path):
        """The cache adopts phase 4's own arrays (H's keys, the score slab),
        so they are frozen; a checkpoint saves none of them, and from its
        second iteration on a resumed run reuses exactly what its
        never-checkpointed twin does."""
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
        assert results[0].full_rescore and results[0].reused_scores == 0
        assert results[1].reused_scores == twin.iterations[3].reused_scores > 0
        assert (results[1].similarity_evaluations
                == twin.iterations[3].similarity_evaluations)
        for result, expected in zip(results, twin.iterations[2:]):
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
        _, _, metadata, _ = load_portable_checkpoint(tmp_path / "ckpt")
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

    def _checkpointed_engine(self, tmp_path, kind="sparse", seed=71,
                             segment_bounds=None):
        if kind == "sparse":
            profiles = generate_sparse_profiles(120, 300, items_per_user=10,
                                                num_communities=4, seed=seed)
        else:
            profiles = generate_dense_profiles(120, dim=6, num_communities=4,
                                               seed=seed)
        if segment_bounds is not None:
            # a layout of the caller's own: the engine keeps a store's bounds
            profiles = OnDiskProfileStore.create(
                tmp_path / "store", profiles, segment_bounds=segment_bounds)
        config = EngineConfig(k=5, num_partitions=4, seed=seed)
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
            resumed.enqueue_profile_changes([ProfileChange(
                user=3, kind="set", vector=np.full(6, 42.0))])
            resumed.run_iteration()
        frozen = OnDiskProfileStore(ckpt / "profiles")
        np.testing.assert_array_equal(frozen.load_users([3]).get(3), expected)

    def test_resumed_churn_and_compaction_leave_the_checkpoint_intact(self, tmp_path):
        """The resumed store shares inodes with the snapshot; its journal
        appends and compaction segment rewrites must never show through
        (atomic replace gives replaced files fresh inodes)."""
        ckpt, _, _ = self._checkpointed_engine(
            tmp_path, "sparse", segment_bounds=[0, 30, 60, 90, 120])
        frozen = OnDiskProfileStore(ckpt / "profiles")
        meta = json.loads((ckpt / "profiles" / "profiles_meta.json").read_text())
        assert meta["segment_bounds"] == [0, 30, 60, 90, 120]
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
    @pytest.mark.parametrize("partitioner", ["contiguous", "hash"])
    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_resumed_run_matches_uninterrupted_run(self, tmp_path, heuristic,
                                                   partitioner):
        """Stopping after 2 iterations and resuming for 2 more must equal a
        4-iteration run, on every schedule: the saved graph is all a resume
        needs."""
        profiles = generate_dense_profiles(140, dim=8, num_communities=4, seed=77)
        config = EngineConfig(k=5, num_partitions=4, seed=77,
                              heuristic=heuristic, partitioner=partitioner)

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


#: ``engine_config`` as commit 87436a9 wrote it into a checkpoint manifest —
#: captured from a run there — with the three knobs retired since set to
#: what no configuration can say any more: no score reuse, the full
#: schedule and 20-row profile segments.
_SWITCHED_OFF_ENGINE_CONFIG = {
    "backend": "thread", "dirty_scheduling": False, "disk_model": "ssd",
    "durable": False, "heuristic": "sequential", "include_direct_edges": True,
    "incremental_phase4": False, "k": 4, "max_pairs_per_bridge": None,
    "max_resident_partitions": 2, "measure": None,
    "memory_budget_bytes": None, "num_partitions": 3, "num_workers": 1,
    "partitioner": "contiguous", "profile_segment_rows": 20,
    "score_cache_entries": 4000000, "seed": 9, "shard_parallel": False,
    "shard_timeout_seconds": None,
}


#: ``engine_config`` as commit 80b82dc wrote it into a checkpoint manifest —
#: captured from a run there — with phase 4 executing in waves, before
#: ``shard_parallel`` was retired.
_WAVES_ENGINE_CONFIG = {
    "backend": "thread", "disk_model": "ssd", "durable": False,
    "heuristic": "sequential", "include_direct_edges": True, "k": 4,
    "max_pairs_per_bridge": None, "max_resident_partitions": 2,
    "measure": None, "memory_budget_bytes": None, "num_partitions": 3,
    "num_workers": 1, "partitioner": "contiguous",
    "score_cache_entries": 4000000, "seed": 9, "shard_parallel": True,
    "shard_timeout_seconds": None,
}


#: ``engine_config`` as commit 72f614d wrote it into a checkpoint manifest —
#: captured from a run there — scoring on two forked workers under a
#: watchdog, before ``backend`` and ``shard_timeout_seconds`` were retired.
_PROCESS_ENGINE_CONFIG = {
    "backend": "process", "disk_model": "ssd", "durable": False,
    "heuristic": "sequential", "include_direct_edges": True, "k": 4,
    "max_pairs_per_bridge": None, "max_resident_partitions": 2,
    "measure": None, "memory_budget_bytes": None, "num_partitions": 3,
    "num_workers": 2, "partitioner": "contiguous",
    "score_cache_entries": 4000000, "seed": 9, "shard_timeout_seconds": 0.5,
}


def _rewrite_saved_config(directory, base=_PARENT_ENGINE_CONFIG, **changes):
    """Make a checkpoint carry an older commit's ``engine_config`` (``base``
    plus ``changes``), re-sealing the directory when it is a sealed epoch."""
    manifest_path = directory / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["metadata"]["engine_config"] = {**base, **changes}
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
            assert recovered.engine.config == config
            assert recovered.neighbors(0) == served
        finally:
            recovered.close()


class TestSwitchedOffManifest:
    """A manifest from before the carried state lost its switches — even one
    with both switched off and its own segment size — resumes and recovers
    into today's configuration, and the run continues to the graphs of a
    twin that never stopped."""

    CONFIG = EngineConfig(k=4, num_partitions=3, seed=9)

    def _feed(self, iteration):
        rng = np.random.default_rng(iteration)
        return [ProfileChange(user=int(user), kind="set", vector=rng.random(4))
                for user in rng.choice(60, size=5, replace=False)]

    @staticmethod
    def _dense_bytes(engine):
        return (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()

    def _twin(self, iterations):
        with KNNEngine(generate_dense_profiles(60, dim=4, seed=1),
                       self.CONFIG) as twin:
            return [result.graph.edge_fingerprint() for result in twin.run(
                iterations, profile_change_feed=self._feed).iterations]

    def test_from_checkpoint_drops_the_retired_knobs(self, tmp_path):
        with KNNEngine(generate_dense_profiles(60, dim=4, seed=1),
                       self.CONFIG) as engine:
            engine.run(2, profile_change_feed=self._feed)
            engine.save_checkpoint(tmp_path / "ckpt")
        _rewrite_saved_config(tmp_path / "ckpt", base=_SWITCHED_OFF_ENGINE_CONFIG)
        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            assert resumed.config == self.CONFIG
            run = resumed.run(2, profile_change_feed=self._feed)
        assert [result.graph.edge_fingerprint()
                for result in run.iterations] == self._twin(4)[2:]
        # the resume rescores once, then reuses: the switch is gone
        assert [result.full_rescore for result in run.iterations] == [True, False]

    def test_recover_drops_the_retired_knobs(self, tmp_path):
        workdir = tmp_path / "work"
        durable = self.CONFIG.with_overrides(durable=True)
        with KNNEngine(generate_dense_profiles(60, dim=4, seed=1), durable,
                       workdir=workdir) as engine:
            engine.run(2, profile_change_feed=self._feed)
            epochs = engine.sealed_epochs()
        assert len(epochs) == 2
        for _, path in epochs:
            _rewrite_saved_config(path, base=_SWITCHED_OFF_ENGINE_CONFIG,
                                  durable=True)
        with KNNEngine.recover(workdir) as recovered:
            assert recovered.config == durable
            assert recovered.iterations_run == 2
            run = recovered.run(2, profile_change_feed=self._feed)
        assert [result.graph.edge_fingerprint()
                for result in run.iterations] == self._twin(4)[2:]

    def test_an_unknown_key_beside_them_still_raises(self, tmp_path):
        with KNNEngine(generate_dense_profiles(60, dim=4, seed=1),
                       self.CONFIG) as engine:
            engine.run_iteration()
            engine.save_checkpoint(tmp_path / "ckpt")
        _rewrite_saved_config(tmp_path / "ckpt", base=_SWITCHED_OFF_ENGINE_CONFIG,
                              warp_factor=9)
        with pytest.raises(ValueError, match="warp_factor") as failure:
            KNNEngine.from_checkpoint(tmp_path / "ckpt")
        assert "incremental_phase4" not in str(failure.value)

    def test_a_saved_wave_switch_resumes_and_recovers_to_the_twin(self, tmp_path):
        """``shard_parallel`` retired after the switches: a manifest that ran
        phase 4 in waves resumes and recovers step at a time to the graphs
        and profile bytes of a twin that never stopped, and an unknown key
        beside it is still named."""
        profiles = generate_dense_profiles(60, dim=4, seed=1)
        with KNNEngine(profiles, self.CONFIG) as twin:
            expected = [result.graph.edge_fingerprint() for result in twin.run(
                4, profile_change_feed=self._feed).iterations][2:]
            expected_bytes = self._dense_bytes(twin)
        workdir = tmp_path / "work"
        durable = self.CONFIG.with_overrides(durable=True)
        with KNNEngine(profiles, durable, workdir=workdir) as engine:
            engine.run(2, profile_change_feed=self._feed)
            engine.save_checkpoint(tmp_path / "ckpt")
            epochs = engine.sealed_epochs()
        _rewrite_saved_config(tmp_path / "ckpt", base=_WAVES_ENGINE_CONFIG,
                              durable=True)
        for _, path in epochs:
            _rewrite_saved_config(path, base=_WAVES_ENGINE_CONFIG, durable=True)
        with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
            assert resumed.config == durable
            run = resumed.run(2, profile_change_feed=self._feed)
            assert [result.graph.edge_fingerprint()
                    for result in run.iterations] == expected
            assert self._dense_bytes(resumed) == expected_bytes
        with KNNEngine.recover(workdir) as recovered:
            assert recovered.config == durable
            assert recovered.iterations_run == 2
            run = recovered.run(2, profile_change_feed=self._feed)
            assert [result.graph.edge_fingerprint()
                    for result in run.iterations] == expected
            assert self._dense_bytes(recovered) == expected_bytes
        _rewrite_saved_config(tmp_path / "ckpt", base=_WAVES_ENGINE_CONFIG,
                              warp_factor=9)
        with pytest.raises(ValueError, match="warp_factor") as failure:
            KNNEngine.from_checkpoint(tmp_path / "ckpt")
        assert "shard_parallel" not in str(failure.value)


#: Every captured ``engine_config`` above, and the scoring widths and
#: backends each could have named: widths 1, 2 and 3, and the ``serial``,
#: ``thread`` and ``process`` backends, with and without ``num_threads``.
_SAVED_MANIFESTS = {
    "pr14-thread-num-threads": _PARENT_ENGINE_CONFIG,
    "pr14-serial-num-threads": {**_PARENT_ENGINE_CONFIG, "backend": "serial"},
    "pr14-process-num-threads": {**_PARENT_ENGINE_CONFIG,
                                 "backend": "process"},
    "switched-off-thread": _SWITCHED_OFF_ENGINE_CONFIG,
    "waves-thread": _WAVES_ENGINE_CONFIG,
    "process-watchdog": _PROCESS_ENGINE_CONFIG,
    "process-no-watchdog": {**_PROCESS_ENGINE_CONFIG,
                            "shard_timeout_seconds": None},
    "process-serial": {**_PROCESS_ENGINE_CONFIG, "backend": "serial",
                       "num_workers": 3},
    "process-thread": {**_PROCESS_ENGINE_CONFIG, "backend": "thread",
                       "num_workers": 3},
    "no-transport-named": {key: value for key, value
                           in _PROCESS_ENGINE_CONFIG.items()
                           if key not in ("backend", "shard_timeout_seconds")}
                          | {"num_workers": 3},
}
#: What every one of them restores: the retired keys carry no result.
_MANIFEST_CONFIG = EngineConfig(k=4, num_partitions=3, seed=9)


def _manifest_feed(iteration):
    rng = np.random.default_rng(iteration)
    return [ProfileChange(user=int(user), kind="set", vector=rng.random(4))
            for user in rng.choice(60, size=5, replace=False)]


@pytest.fixture(scope="module")
def manifest_twin():
    """Per-iteration fingerprints of a 4-iteration run that never stopped."""
    with KNNEngine(generate_dense_profiles(60, dim=4, seed=1),
                   _MANIFEST_CONFIG) as twin:
        return [result.graph.edge_fingerprint() for result in twin.run(
            4, profile_change_feed=_manifest_feed).iterations]


@pytest.mark.parametrize("name", sorted(_SAVED_MANIFESTS))
def test_every_saved_manifest_resumes_to_the_uninterrupted_run(
        name, tmp_path, manifest_twin):
    """Each captured manifest restores today's configuration with every
    retired key dropped — no saved width or backend changes it — and
    resumes to the graphs of a twin that never stopped; a key that is
    really unknown beside them still raises and is named."""
    saved = _SAVED_MANIFESTS[name]
    before = dict(saved)
    assert _config_from_manifest(saved, tmp_path) == _MANIFEST_CONFIG
    assert saved == before
    with KNNEngine(generate_dense_profiles(60, dim=4, seed=1),
                   _MANIFEST_CONFIG) as engine:
        engine.run(2, profile_change_feed=_manifest_feed)
        engine.save_checkpoint(tmp_path / "ckpt")
    _rewrite_saved_config(tmp_path / "ckpt", base=saved)
    with KNNEngine.from_checkpoint(tmp_path / "ckpt") as resumed:
        assert resumed.config == _MANIFEST_CONFIG
        run = resumed.run(2, profile_change_feed=_manifest_feed)
    assert [result.graph.edge_fingerprint()
            for result in run.iterations] == manifest_twin[2:]
    _rewrite_saved_config(tmp_path / "ckpt", base=saved, warp_factor=9)
    with pytest.raises(ValueError, match="warp_factor") as failure:
        KNNEngine.from_checkpoint(tmp_path / "ckpt")
    assert str(tmp_path / "ckpt") in str(failure.value)
    assert not any(key in str(failure.value) for key in _RETIRED_KNOBS)
