"""Backend parity wall: ``process`` ≡ ``thread`` ≡ serial, everywhere.

Every phase-4 score crosses one seam, ``ScoringWorkers.execute(tasks)``,
whose three transports (inline, a thread pool, forked workers that re-open
the profile store and score against mmap-served slices) must be
indistinguishable by their results.  These tests pin the seam to
``similarity_rows`` on freshly loaded slices — bitwise, for all 8 measures on
dense and sparse stores, at both granularities (one task cut row-wise, a wave
of partition-disjoint tasks) and every width — and whole engine runs to each
other by edge-set fingerprint, including the awkward shapes: empty batches,
fewer rows than workers, partitions smaller than the worker count, a step
whose two partitions are one, a store that changed between calls, and a
one-worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.parallel as parallel_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import ScoringWorkers, ShardStepTask, fork_available
from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120
BACKENDS = ["serial", "thread", "process"]


@pytest.fixture(scope="module")
def dense_store(tmp_path_factory):
    profiles = generate_dense_profiles(NUM_USERS, dim=8, num_communities=4,
                                       noise=0.2, seed=7)
    return OnDiskProfileStore.create(tmp_path_factory.mktemp("dense"), profiles,
                                     disk_model="instant")


@pytest.fixture(scope="module")
def sparse_store(tmp_path_factory):
    profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=15,
                                        num_communities=4, seed=7)
    return OnDiskProfileStore.create(tmp_path_factory.mktemp("sparse"), profiles,
                                     disk_model="instant")


@pytest.fixture(scope="module")
def stores(dense_store, sparse_store):
    return {"dense": dense_store, "sparse": sparse_store}


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(11)
    return rng.integers(0, NUM_USERS, size=(500, 2)).astype(np.int64)


@pytest.fixture
def cut_everything(monkeypatch):
    """Cut every batch of a lone task, however small, across the workers."""
    monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", 0)


def _workers(store, backend, width=3, **options):
    if backend == "process" and not fork_available():
        pytest.skip("process transport needs fork")
    return ScoringWorkers(store, backend=backend, num_workers=width, **options)


def _task(parts, batches, measure, generation=None):
    return ShardStepTask(parts=tuple(parts), batches=tuple(batches),
                         measure=measure, generation=generation)


def _whole_store_task(pairs, measure, key="all"):
    """Id pairs as one task over the whole store (where row == id)."""
    return _task([(key, np.arange(NUM_USERS))],
                 [(0, 0, pairs[:, 0], pairs[:, 1])], measure)


def _expected(store, task):
    """The task's scores off freshly loaded slices, no seam involved."""
    slices = [store.load_users(np.asarray(ids, dtype=np.int64))
              for _, ids in task.parts]
    return np.concatenate([
        slices[left].similarity_rows(left_rows, slices[right], right_rows,
                                     task.measure)
        for left, right, left_rows, right_rows in task.batches])


def _step_tasks(rng, step_pairs, rows=60, measure=None):
    """One task per ``(p, q)`` quarter-of-the-store partition pair, each with
    the PI edges (p, q), (q, p) and (p, p) as partition-local row batches."""
    quarter = NUM_USERS // 4
    tasks = []
    for first, second in step_pairs:
        pids = (first,) if first == second else (first, second)
        parts = [((0, pid), np.arange(pid * quarter, (pid + 1) * quarter))
                 for pid in pids]
        edges = [(0, 0)] if first == second else [(0, 1), (1, 0), (0, 0)]
        batches = [(left, right, rng.integers(0, quarter, size=rows),
                    rng.integers(0, quarter, size=rows))
                   for left, right in edges]
        tasks.append(_task(parts, batches, measure))
    return tasks


class TestScoreParityAllMeasures:
    @pytest.mark.parametrize("measure", sorted(VECTOR_MEASURES))
    def test_dense_measures(self, dense_store, pairs, measure, cut_everything):
        task = _whole_store_task(pairs, measure)
        expected = _expected(dense_store, task)
        for backend in BACKENDS:
            with _workers(dense_store, backend) as workers:
                np.testing.assert_array_equal(workers.execute([task])[0],
                                              expected)

    @pytest.mark.parametrize("measure", sorted(SET_MEASURES))
    def test_sparse_measures(self, sparse_store, pairs, measure, cut_everything):
        task = _whole_store_task(pairs, measure)
        expected = _expected(sparse_store, task)
        for backend in BACKENDS:
            with _workers(sparse_store, backend) as workers:
                np.testing.assert_array_equal(workers.execute([task])[0],
                                              expected)

    def test_scattered_slice_parity(self, dense_store, cut_everything):
        """Non-contiguous user ids exercise the gathered-copy load path."""
        users = np.arange(0, NUM_USERS, 3)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, len(users), size=(200, 2))
        task = _task([("scattered", users)], [(0, 0, rows[:, 0], rows[:, 1])],
                     "cosine")
        with _workers(dense_store, "serial") as serial:
            expected = serial.execute([task])[0]
        with _workers(dense_store, "process") as process:
            np.testing.assert_array_equal(process.execute([task])[0], expected)
        # and the rows mean what the ids say
        whole = dense_store.load_users(range(NUM_USERS))
        np.testing.assert_array_equal(
            whole.similarity_pairs(users[rows], "cosine"), expected)

    def test_two_partition_parity(self, dense_store, cut_everything):
        """Left rows address one slice, right rows the other."""
        half = NUM_USERS // 2
        rng = np.random.default_rng(6)
        left_rows = rng.integers(0, half, size=300)
        right_rows = rng.integers(0, NUM_USERS - half, size=300)
        task = _task([("low", range(half)), ("high", range(half, NUM_USERS))],
                     [(0, 1, left_rows, right_rows)], "cosine")
        with _workers(dense_store, "process") as process:
            got = process.execute([task])[0]
        whole = dense_store.load_users(range(NUM_USERS))
        np.testing.assert_array_equal(whole.similarity_pairs(
            np.column_stack([left_rows, half + right_rows]), "cosine"), got)


class TestSeamWall:
    """3 transports × widths {1, 2, 3} × both granularities, dense and sparse:
    every result bit-equal to ``similarity_rows`` on freshly loaded slices."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_task_cut_row_wise(self, stores, backend, width, kind,
                                   cut_everything):
        store = stores[kind]
        (task,) = _step_tasks(np.random.default_rng(3), [(0, 2)],
                              measure="cosine" if kind == "dense" else "jaccard")
        with _workers(store, backend, width) as workers:
            (scores,) = workers.execute([task])
        np.testing.assert_array_equal(scores, _expected(store, task))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_wave_of_disjoint_tasks(self, stores, backend, width, kind):
        store = stores[kind]
        tasks = _step_tasks(np.random.default_rng(4), [(0, 1), (2, 3)],
                            measure="cosine" if kind == "dense" else "jaccard")
        with _workers(store, backend, width) as workers:
            results = workers.execute(tasks)
        assert len(results) == len(tasks)
        for task, scores in zip(tasks, results):
            np.testing.assert_array_equal(scores, _expected(store, task))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_step_inside_one_partition(self, dense_store, backend,
                                         cut_everything):
        (task,) = _step_tasks(np.random.default_rng(5), [(1, 1)],
                              measure="cosine")
        assert len(task.parts) == 1
        with _workers(dense_store, backend) as workers:
            (scores,) = workers.execute([task])
        np.testing.assert_array_equal(scores, _expected(dense_store, task))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batch(self, dense_store, backend, cut_everything):
        """A batch without rows scores to nothing, beside one that has some."""
        nothing = np.empty(0, dtype=np.int64)
        rows = np.arange(10)
        task = _task([("ten", range(10))],
                     [(0, 0, nothing, nothing), (0, 0, rows, rows[::-1])],
                     "cosine")
        with _workers(dense_store, backend) as workers:
            (scores,) = workers.execute([task])
            (none,) = workers.execute([_task(task.parts, task.batches[:1],
                                             "cosine")])
            assert workers.execute([]) == []
        np.testing.assert_array_equal(scores, _expected(dense_store, task))
        assert none.shape == (0,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fewer_rows_than_workers(self, dense_store, backend, cut_everything):
        """Pieces beyond the row count are dropped, not scored empty."""
        task = _task([("ten", range(10))],
                     [(0, 0, np.array([0, 2]), np.array([1, 3]))], "cosine")
        with _workers(dense_store, backend, width=3) as workers:
            (scores,) = workers.execute([task])
        np.testing.assert_array_equal(scores, _expected(dense_store, task))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generation_bump_drops_the_stale_part_cache(self, tmp_path, backend):
        """The same part key after ``apply_changes``: workers that outlive a
        profile update must not serve the slice they cached before it."""
        profiles = generate_dense_profiles(40, dim=6, num_communities=2, seed=3)
        store = OnDiskProfileStore.create(tmp_path, profiles,
                                          disk_model="instant")
        rows = np.array([0, 2, 0]), np.array([1, 3, 3])

        def task():
            return _task([("part", range(40))], [(0, 0, *rows)], "cosine",
                         generation=store.generation)

        with _workers(store, backend, width=2) as workers:
            (before,) = workers.execute([task()])
            np.testing.assert_array_equal(before, _expected(store, task()))
            store.apply_changes([ProfileChange(user=0, kind="set",
                                               vector=np.ones(6))])
            (after,) = workers.execute([task()])
        np.testing.assert_array_equal(after, _expected(store, task()))
        assert not np.array_equal(before, after)

    def test_part_cache_reuse_is_sound_and_bounded(self, dense_store, pairs):
        """Same key twice → same result; and the in-process cache never
        holds more slices than its slots, whatever the tasks name."""
        task = _whole_store_task(pairs, "cosine", key="step-a")
        with _workers(dense_store, "serial", part_cache_slots=2) as workers:
            first = workers.execute([task])[0]
            second = workers.execute([task])[0]
            workers.execute(_step_tasks(np.random.default_rng(6),
                                        [(0, 1), (2, 3)], measure="cosine"))
            assert len(workers._state._parts) == 2
        np.testing.assert_array_equal(first, _expected(dense_store, task))
        np.testing.assert_array_equal(first, second)

    def test_single_worker_pool(self, dense_store, caplog):
        """``process`` × 1 builds no pool: inline, with the warning."""
        task = _whole_store_task(np.array([[0, 1], [5, 9], [10, 11]]), "cosine")
        with caplog.at_level("WARNING", logger="repro.core.parallel"):
            with _workers(dense_store, "process", width=1) as workers:
                assert workers.transport == "inline"
                (scores,) = workers.execute([task])
                assert workers._executor is None
        np.testing.assert_array_equal(scores, _expected(dense_store, task))
        assert sum("skipping the worker pool" in record.message
                   for record in caplog.records) == 1

    def test_unknown_backend_and_bad_knobs_rejected(self, dense_store):
        with pytest.raises(ValueError):
            ScoringWorkers(dense_store, backend="gpu")
        with pytest.raises(ValueError):
            ScoringWorkers(dense_store, shard_timeout=0)
        with pytest.raises(ValueError):
            ScoringWorkers(dense_store, max_retries=0)
        with pytest.raises(ValueError):
            ScoringWorkers(dense_store, part_cache_slots=0)


def _engine_fingerprint(profiles, **overrides) -> str:
    defaults = dict(k=5, num_partitions=4, heuristic="degree-low-high", seed=17)
    defaults.update(overrides)
    config = EngineConfig(**defaults)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=2)
    return run.final_graph.edge_fingerprint()


class TestEngineBackendParity:
    def test_dense_engine_all_backends_identical(self):
        profiles = generate_dense_profiles(150, dim=8, num_communities=4, seed=23)
        serial = _engine_fingerprint(profiles, backend="serial")
        threaded = _engine_fingerprint(profiles, backend="thread", num_workers=3)
        process = _engine_fingerprint(profiles, backend="process", num_workers=3)
        assert serial == threaded == process

    def test_sparse_engine_process_identical(self):
        """Set measures produce heavy score ties; parity must survive them."""
        profiles = generate_sparse_profiles(150, 200, items_per_user=10,
                                            num_communities=4, seed=23)
        serial = _engine_fingerprint(profiles, backend="serial")
        process = _engine_fingerprint(profiles, backend="process", num_workers=3)
        assert serial == process

    def test_partitions_smaller_than_worker_count(self):
        """8 partitions of ~7 users each, 6 workers: shards go empty, results don't."""
        profiles = generate_dense_profiles(60, dim=6, num_communities=3, seed=29)
        serial = _engine_fingerprint(profiles, k=4, num_partitions=8,
                                     backend="serial")
        process = _engine_fingerprint(profiles, k=4, num_partitions=8,
                                      backend="process", num_workers=6)
        assert serial == process

    def test_process_single_worker(self):
        profiles = generate_dense_profiles(80, dim=6, num_communities=3, seed=31)
        serial = _engine_fingerprint(profiles, backend="serial")
        process = _engine_fingerprint(profiles, backend="process", num_workers=1)
        assert serial == process


class TestShardedMergeDeterminism:
    def test_sharded_equals_batch_with_ties(self):
        rng = np.random.default_rng(41)
        n, rows = 60, 800
        src = rng.integers(0, n, size=rows).astype(np.int64)
        dst = rng.integers(0, n, size=rows).astype(np.int64)
        # quantised scores force plenty of exact ties
        scores = np.round(rng.random(rows), 1)
        plain = KNNGraph(n, 5)
        sharded = KNNGraph(n, 5)
        changed_plain = plain.add_candidates_batch(src, dst, scores)
        changed_sharded = sharded.add_candidates_sharded(src, dst, scores,
                                                         num_shards=4)
        assert changed_plain == changed_sharded
        assert plain.edge_fingerprint() == sharded.edge_fingerprint()

    def test_sharded_with_incumbents(self):
        rng = np.random.default_rng(43)
        n = 40
        plain = KNNGraph.random(n, 4, seed=9)
        sharded = plain.copy()
        src = rng.integers(0, n, size=300).astype(np.int64)
        dst = rng.integers(0, n, size=300).astype(np.int64)
        scores = np.round(rng.random(300), 2)
        plain.add_candidates_batch(src, dst, scores)
        sharded.add_candidates_sharded(src, dst, scores, num_shards=3)
        assert plain.edge_fingerprint() == sharded.edge_fingerprint()
