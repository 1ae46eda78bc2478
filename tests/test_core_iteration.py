"""Tests for repro.core.iteration (single out-of-core iteration)."""

import numpy as np
import pytest

from repro.baselines.in_memory import InMemoryKNNIterator
from repro.core.config import EngineConfig
from repro.core.iteration import PHASE_NAMES, OutOfCoreIteration
from repro.core.update_queue import ProfileUpdateQueue
from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import SetProfileCSR
from repro.similarity.workloads import ProfileChange, generate_dense_profiles, generate_sparse_profiles
from repro.storage.profile_store import OnDiskProfileStore


def make_runner(tmp_path, profiles, **config_kwargs):
    config = EngineConfig(**config_kwargs)
    profile_store = OnDiskProfileStore.create(tmp_path / "profiles", profiles,
                                              disk_model=config.disk_model)
    return OutOfCoreIteration(config, profile_store), profile_store


@pytest.fixture(scope="module")
def profiles():
    return generate_dense_profiles(200, dim=8, num_communities=5, noise=0.2, seed=29)


class TestEquivalenceWithInMemory:
    @pytest.mark.parametrize("partitioner", ["contiguous", "hash", "greedy-locality"])
    @pytest.mark.parametrize("heuristic", ["sequential", "degree-low-high"])
    def test_matches_in_memory_oracle(self, tmp_path, profiles, partitioner, heuristic):
        k = 6
        initial = KNNGraph.random(profiles.num_users, k, seed=1)
        runner, _ = make_runner(tmp_path, profiles, k=k, num_partitions=5,
                                partitioner=partitioner, heuristic=heuristic, seed=1)
        out_of_core = runner.run(0, initial).graph
        oracle = InMemoryKNNIterator(k=k, measure="cosine").iterate(initial, profiles).graph
        mismatches = sum(
            1 for v in range(profiles.num_users)
            if set(out_of_core.neighbors(v)) != set(oracle.neighbors(v))
        )
        assert mismatches == 0

    @pytest.mark.parametrize("partitioner", ["contiguous", "hash"])
    def test_sparse_jaccard_matches_in_memory_oracle(self, tmp_path, monkeypatch,
                                                     partitioner):
        """Phase 4's set kernel, on its membership-bitmap path, against an
        oracle that scores every pair with the scalar set functions."""
        built = []
        build = SetProfileCSR._build_bitmap

        def recording(csr, row_bits):
            bitmap = build(csr, row_bits)
            built.append(bitmap)
            return bitmap

        monkeypatch.setattr(SetProfileCSR, "_build_bitmap", recording)
        sparse = generate_sparse_profiles(240, 600, items_per_user=12,
                                          num_communities=4, seed=31)
        k = 6
        initial = KNNGraph.random(sparse.num_users, k, seed=4)
        runner, _ = make_runner(tmp_path, sparse, k=k, num_partitions=4,
                                partitioner=partitioner, measure="jaccard",
                                heuristic="degree-low-high", seed=4)
        out_of_core = runner.run(0, initial).graph
        assert built, "no slice built its membership bitmap: the search path was scored"
        oracle = InMemoryKNNIterator(k=k, measure="jaccard").iterate(
            initial, sparse).graph
        for v in range(sparse.num_users):
            assert out_of_core.neighbor_scores(v) == oracle.neighbor_scores(v)

    def test_partition_count_does_not_change_result(self, tmp_path, profiles):
        k = 5
        initial = KNNGraph.random(profiles.num_users, k, seed=2)
        graphs = []
        for m in (2, 7):
            runner, _ = make_runner(tmp_path / f"m{m}", profiles, k=k, num_partitions=m, seed=2)
            graphs.append(runner.run(0, initial).graph)
        assert graphs[0].edge_difference(graphs[1]) == 0

    def test_flush_threshold_does_not_change_result(self, tmp_path, profiles,
                                                    monkeypatch):
        """Phase 4 merges scored tuples in bounded batches; the batch size
        must not affect G(t+1) (incumbent merges across flushes)."""
        import repro.core.iteration as iteration_module
        k = 5
        initial = KNNGraph.random(profiles.num_users, k, seed=3)
        runner, _ = make_runner(tmp_path / "one-flush", profiles, k=k,
                                num_partitions=5, seed=3)
        single = runner.run(0, initial).graph
        monkeypatch.setattr(iteration_module, "_SCORED_FLUSH_ROWS", 1)
        runner, _ = make_runner(tmp_path / "many-flush", profiles, k=k,
                                num_partitions=5, seed=3)
        many = runner.run(0, initial).graph
        assert single.edge_difference(many) == 0
        for v in range(profiles.num_users):
            assert single.neighbor_scores(v) == pytest.approx(many.neighbor_scores(v))


class TestIterationAccounting:
    def test_phases_all_timed(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 5, seed=3)
        runner, _ = make_runner(tmp_path, profiles, k=5, num_partitions=4)
        result = runner.run(0, initial)
        assert set(result.phase_timer.as_dict()) == set(PHASE_NAMES)

    def test_io_stats_populated(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 5, seed=4)
        runner, _ = make_runner(tmp_path, profiles, k=5, num_partitions=4, disk_model="hdd")
        result = runner.run(0, initial)
        assert result.io_stats.partition_loads > 0
        assert result.io_stats.partition_unloads > 0
        assert result.io_stats.bytes_read > 0
        assert result.io_stats.bytes_written > 0
        assert result.io_stats.simulated_io_seconds > 0

    def test_actual_load_unload_close_to_schedule(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 5, seed=5)
        runner, _ = make_runner(tmp_path, profiles, k=5, num_partitions=6,
                                heuristic="degree-low-high")
        result = runner.run(0, initial)
        assert result.load_unload_operations == result.schedule.load_unload_operations

    def test_candidate_and_evaluation_counts(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 5, seed=6)
        runner, _ = make_runner(tmp_path, profiles, k=5, num_partitions=4)
        result = runner.run(0, initial)
        assert result.similarity_evaluations == result.num_candidate_tuples
        assert result.num_candidate_tuples > 0

    def test_summary_keys(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 4, seed=7)
        runner, _ = make_runner(tmp_path, profiles, k=4, num_partitions=3)
        summary = runner.run(0, initial).summary()
        for key in ("iteration", "num_candidate_tuples", "similarity_evaluations",
                    "load_unload_operations", "phase_seconds"):
            assert key in summary


class TestProfileUpdates:
    def test_queued_changes_applied_after_iteration(self, tmp_path):
        profiles = generate_sparse_profiles(80, 300, items_per_user=10, seed=8)
        runner, profile_store = make_runner(tmp_path, profiles, k=4, num_partitions=3)
        queue = ProfileUpdateQueue()
        queue.enqueue_many([ProfileChange(user=5, kind="add", item=9999)])
        initial = KNNGraph.random(80, 4, seed=8)
        result = runner.run(0, initial, update_queue=queue)
        assert result.profile_updates_applied == 1
        assert 9999 in profile_store.load_users([5]).get(5)
        assert len(queue) == 0

    def test_no_queue_means_no_updates(self, tmp_path, profiles):
        runner, _ = make_runner(tmp_path, profiles, k=4, num_partitions=3)
        result = runner.run(0, KNNGraph.random(profiles.num_users, 4, seed=9))
        assert result.profile_updates_applied == 0


class TestMemoryBudget:
    def test_budget_enforced(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 5, seed=10)
        runner, _ = make_runner(tmp_path, profiles, k=5, num_partitions=4,
                                memory_budget_bytes=64.0)
        with pytest.raises(MemoryError):
            runner.run(0, initial)

    def test_generous_budget_succeeds(self, tmp_path, profiles):
        initial = KNNGraph.random(profiles.num_users, 5, seed=11)
        runner, _ = make_runner(tmp_path, profiles, k=5, num_partitions=4,
                                memory_budget_bytes=64 * 1024 * 1024)
        result = runner.run(0, initial)
        assert result.graph.num_vertices == profiles.num_users
