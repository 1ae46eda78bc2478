"""Tests for repro.core.engine (the public KNNEngine)."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import (
    ProfileChange,
    generate_dense_profiles,
    generate_profile_churn,
    generate_sparse_profiles,
)


@pytest.fixture(scope="module")
def profiles():
    return generate_dense_profiles(180, dim=8, num_communities=5, noise=0.2, seed=41)


class TestConstruction:
    def test_rejects_too_few_users(self):
        small = generate_dense_profiles(8, dim=4, seed=1)
        with pytest.raises(ValueError, match="more users than neighbours"):
            KNNEngine(small, EngineConfig(k=10))

    def test_rejects_too_many_partitions(self, profiles):
        with pytest.raises(ValueError, match="num_partitions"):
            KNNEngine(profiles, EngineConfig(k=5, num_partitions=1000))

    def test_rejects_mismatched_initial_graph(self, profiles):
        with pytest.raises(ValueError, match="initial_graph"):
            KNNEngine(profiles, EngineConfig(k=5),
                      initial_graph=KNNGraph.random(20, 5, seed=1))

    def test_default_config_used_when_none(self, profiles):
        with KNNEngine(profiles) as engine:
            assert engine.config.k == 10

    def test_workdir_cleanup_when_owned(self, profiles):
        engine = KNNEngine(profiles, EngineConfig(k=5, num_partitions=4))
        workdir = engine.workdir
        assert workdir.exists()
        engine.close()
        assert not workdir.exists()

    def test_user_workdir_preserved(self, profiles, tmp_path):
        engine = KNNEngine(profiles, EngineConfig(k=5, num_partitions=4), workdir=tmp_path)
        engine.close()
        assert tmp_path.exists()

    def test_closed_engine_refuses_to_run(self, profiles):
        engine = KNNEngine(profiles, EngineConfig(k=5, num_partitions=4))
        engine.close()
        with pytest.raises(RuntimeError):
            engine.run_iteration()
        engine.close()   # idempotent


class TestExecution:
    def test_single_iteration_advances_graph(self, profiles):
        config = EngineConfig(k=6, num_partitions=4, seed=3)
        with KNNEngine(profiles, config) as engine:
            before = engine.graph.copy()
            result = engine.run_iteration()
            assert engine.iterations_run == 1
            assert engine.graph is result.graph
            assert result.graph.edge_difference(before) > 0

    def test_recall_improves_and_convergence_tracked(self, profiles):
        exact = brute_force_knn(profiles, 6, measure="cosine")
        config = EngineConfig(k=6, num_partitions=4, heuristic="degree-low-high", seed=4)
        with KNNEngine(profiles, config) as engine:
            run = engine.run(num_iterations=4, exact_graph=exact)
        assert run.num_iterations == 4
        assert run.convergence.recalls[-1] > run.convergence.recalls[0]
        assert run.convergence.recalls[-1] > 0.6
        assert run.total_similarity_evaluations > 0
        assert run.total_load_unload_operations > 0

    def test_early_stop_on_convergence(self, profiles):
        config = EngineConfig(k=6, num_partitions=4, seed=5)
        with KNNEngine(profiles, config) as engine:
            run = engine.run(num_iterations=20, convergence_threshold=0.05)
        assert run.num_iterations < 20
        assert run.convergence.converged

    def test_deterministic_given_seed(self, profiles):
        config = EngineConfig(k=5, num_partitions=4, seed=6)
        with KNNEngine(profiles, config) as a, KNNEngine(profiles, config) as b:
            graph_a = a.run(num_iterations=2).final_graph
            graph_b = b.run(num_iterations=2).final_graph
        assert graph_a.edge_difference(graph_b) == 0

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_initial_graph_from_the_seed_changes_nothing(self, kind):
        """An engine handed ``KNNGraph.random(n, k, seed)`` runs exactly as
        one that draws G(0) from that seed itself: handing a test the graph
        its recorded values were made on changes only the draw."""
        if kind == "dense":
            data = generate_dense_profiles(180, dim=8, num_communities=5, seed=41)
        else:
            data = generate_sparse_profiles(180, 150, items_per_user=10,
                                            num_communities=5, seed=41)
        config = EngineConfig(k=5, num_partitions=4, seed=13)
        initial = KNNGraph.random(data.num_users, config.k, config.seed)

        def observe(**kwargs):
            churn = generate_profile_churn(data, change_fraction=0.1, seed=5)
            with KNNEngine(data, config, **kwargs) as engine:
                run = engine.run(num_iterations=4,
                                 profile_change_feed=lambda i: churn if i == 1 else [])
                profile_bytes = {path.name: path.read_bytes() for path
                                 in engine.profile_store.base_dir.glob("*.bin")}
            return ([(r.graph.edge_fingerprint(), r.similarity_evaluations,
                      r.reused_scores, r.steps_skipped, r.load_unload_operations,
                      r.candidates_rebuilt, r.full_rescore, r.io_stats.as_dict())
                     for r in run.iterations], profile_bytes)

        assert observe(initial_graph=initial) == observe()

    def test_run_summary_keys(self, profiles):
        config = EngineConfig(k=5, num_partitions=4, seed=7)
        with KNNEngine(profiles, config) as engine:
            summary = engine.run(num_iterations=1).summary()
        for key in ("num_iterations", "total_similarity_evaluations",
                    "total_load_unload_operations", "phase_seconds", "change_rates"):
            assert key in summary

    def test_invalid_iteration_count(self, profiles):
        with KNNEngine(profiles, EngineConfig(k=5, num_partitions=4)) as engine:
            with pytest.raises(ValueError):
                engine.run(num_iterations=0)

    def test_a_run_under_churn_starts_no_thread_and_no_process(self, profiles):
        """Phase 4 scores every step on the calling thread: a run starts
        no thread and no process, and every iteration scored something."""
        import multiprocessing
        import threading

        threads = threading.enumerate()
        rng = np.random.default_rng(8)
        with KNNEngine(profiles, EngineConfig(k=5, num_partitions=4,
                                              seed=8)) as engine:
            run = engine.run(num_iterations=3, profile_change_feed=lambda _: [
                ProfileChange(user=int(user), kind="set", vector=rng.random(8))
                for user in rng.choice(profiles.num_users, size=6,
                                       replace=False)])
            assert threading.enumerate() == threads
            assert multiprocessing.active_children() == []
        assert all(result.similarity_evaluations for result in run.iterations)


class TestDynamicProfiles:
    def test_enqueued_changes_applied(self):
        profiles = generate_sparse_profiles(100, 400, items_per_user=12, seed=9)
        config = EngineConfig(k=5, num_partitions=4, seed=9)
        with KNNEngine(profiles, config) as engine:
            engine.enqueue_profile_changes([ProfileChange(user=0, kind="add", item=399)])
            result = engine.run_iteration()
            assert result.profile_updates_applied == 1
            assert 399 in engine.profile_store.load_users([0]).get(0)

    def test_profile_change_feed(self, profiles):
        config = EngineConfig(k=5, num_partitions=4, seed=10)
        seen_iterations = []

        def feed(iteration):
            seen_iterations.append(iteration)
            return generate_profile_churn(profiles, change_fraction=0.05, seed=iteration)

        with KNNEngine(profiles, config) as engine:
            run = engine.run(num_iterations=3, profile_change_feed=feed)
        assert seen_iterations == [0, 1, 2]
        assert sum(r.profile_updates_applied for r in run.iterations) > 0

    def test_changing_profiles_change_the_result(self, profiles):
        config = EngineConfig(k=5, num_partitions=4, seed=11)
        with KNNEngine(profiles, config) as static_engine:
            static = static_engine.run(num_iterations=3).final_graph
        rng = np.random.default_rng(0)

        def feed(iteration):
            return [ProfileChange(user=int(u), kind="set",
                                  vector=rng.normal(size=profiles.dim))
                    for u in rng.choice(profiles.num_users, size=20, replace=False)]

        with KNNEngine(profiles, config) as dynamic_engine:
            dynamic = dynamic_engine.run(num_iterations=3, profile_change_feed=feed).final_graph
        assert static.edge_difference(dynamic) > 0

    def test_updates_first_is_the_paper_sequence_with_phase_5_moved_to_the_head(
            self, profiles):
        """Phase 5 at the tail of iteration *t* and at the head of *t + 1*
        make the same graph sequence from the same batches; only which
        iteration reports the applied work — and which graph first reflects
        it — moves."""
        config = EngineConfig(k=5, num_partitions=4, seed=12)
        rng = np.random.default_rng(1)
        batch = [ProfileChange(user=int(u), kind="set",
                               vector=rng.normal(size=profiles.dim))
                 for u in rng.choice(profiles.num_users, size=6, replace=False)]

        def counters(result):
            return (result.graph.edge_fingerprint(), result.similarity_evaluations,
                    result.reused_scores, result.load_unload_operations)

        with KNNEngine(profiles, config) as paper:
            paper.run(2)
            paper.enqueue_profile_changes(batch)
            tail = paper.run_iteration()         # scores P(t), then applies
            after = paper.run_iteration()        # the first to score the batch
            paper_bytes = (paper.profile_store.base_dir
                           / "profiles_dense.bin").read_bytes()
        with KNNEngine(profiles, config) as serving:
            serving.run(2)
            idle = serving.run_iteration(updates_first=True)   # nothing queued
            serving.enqueue_profile_changes(batch)
            head = serving.run_iteration(updates_first=True)   # applies, then scores
            assert len(serving.update_queue) == 0
            serving_bytes = (serving.profile_store.base_dir
                             / "profiles_dense.bin").read_bytes()
        assert counters(idle) == counters(tail)
        assert counters(head) == counters(after)
        assert serving_bytes == paper_bytes
        assert (tail.profile_updates_applied, after.profile_updates_applied) == (6, 0)
        assert (idle.profile_updates_applied, head.profile_updates_applied) == (0, 6)
        # the head-applied work is timed as phase 5 of the iteration it ran in
        assert list(head.phase_timer.as_dict())[0] == "5-profile-update"
        assert idle.profile_io_stats.bytes_written == 0
        assert head.profile_io_stats.bytes_written > 0
