"""Backend parity wall: ``process`` ≡ ``thread`` ≡ serial, everywhere.

The process backend re-opens the profile store in worker processes and
scores tuple shards against mmap-served slices; these tests pin its results
to the serial path — score arrays to 1e-12 (in practice bitwise) for all 8
measures on dense and sparse stores, and edge-set fingerprints for whole
engine runs — including the awkward shapes: empty tuple batches, shards
emptier than the worker count, partitions smaller than the worker count,
and a one-worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import ProcessScoringPool, score_tuples
from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.workloads import generate_dense_profiles, generate_sparse_profiles
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120


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
def dense_pool(dense_store):
    with ProcessScoringPool(dense_store, num_workers=3) as pool:
        yield pool


@pytest.fixture(scope="module")
def sparse_pool(sparse_store):
    with ProcessScoringPool(sparse_store, num_workers=3) as pool:
        yield pool


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(11)
    return rng.integers(0, NUM_USERS, size=(500, 2)).astype(np.int64)


def _score(piece, pairs, measure, **options):
    """``score_tuples`` for id pairs over a slice holding users ``0..n-1``
    (where a user's row is its id)."""
    return score_tuples(piece, pairs[:, 0], piece, pairs[:, 1], measure,
                        **options)


def _assert_scores_match(expected, got):
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


class TestScoreParityAllMeasures:
    @pytest.mark.parametrize("measure", sorted(VECTOR_MEASURES))
    def test_dense_measures(self, dense_store, dense_pool, pairs, measure):
        piece = dense_store.load_users(range(NUM_USERS))
        serial = _score(piece, pairs, measure, backend="serial")
        threaded = _score(piece, pairs, measure, num_threads=4,
                                chunk_size=64, backend="thread")
        process = _score(piece, pairs, measure, backend="process",
                               pool=dense_pool)
        _assert_scores_match(serial, threaded)
        _assert_scores_match(serial, process)

    @pytest.mark.parametrize("measure", sorted(SET_MEASURES))
    def test_sparse_measures(self, sparse_store, sparse_pool, pairs, measure):
        piece = sparse_store.load_users(range(NUM_USERS))
        serial = _score(piece, pairs, measure, backend="serial")
        threaded = _score(piece, pairs, measure, num_threads=4,
                                chunk_size=64, backend="thread")
        process = _score(piece, pairs, measure, backend="process",
                               pool=sparse_pool)
        _assert_scores_match(serial, threaded)
        _assert_scores_match(serial, process)

    def test_scattered_slice_parity(self, dense_store, dense_pool):
        """Non-contiguous user ids exercise the gathered-copy load path."""
        users = list(range(0, NUM_USERS, 3))
        piece = dense_store.load_users(users)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, len(users), size=(200, 2))
        serial = _score(piece, rows, "cosine", backend="serial")
        process = _score(piece, rows, "cosine", backend="process",
                         pool=dense_pool)
        _assert_scores_match(serial, process)
        # and the rows mean what the ids say
        _assert_scores_match(piece.similarity_pairs(
            np.asarray(users, dtype=np.int64)[rows], "cosine"), serial)

    def test_two_partition_parity(self, dense_store, dense_pool):
        """Left rows address one slice, right rows the other."""
        half = NUM_USERS // 2
        left = dense_store.load_users(range(half))
        right = dense_store.load_users(range(half, NUM_USERS))
        rng = np.random.default_rng(6)
        left_rows = rng.integers(0, half, size=300)
        right_rows = rng.integers(0, NUM_USERS - half, size=300)
        serial = score_tuples(left, left_rows, right, right_rows, "cosine",
                              backend="serial")
        process = score_tuples(left, left_rows, right, right_rows, "cosine",
                               backend="process", pool=dense_pool)
        _assert_scores_match(serial, process)
        whole = dense_store.load_users(range(NUM_USERS))
        _assert_scores_match(whole.similarity_pairs(
            np.column_stack([left_rows, half + right_rows]), "cosine"), serial)


class TestProcessPoolEdgeCases:
    def test_empty_tuples(self, dense_store, dense_pool):
        piece = dense_store.load_users(range(10))
        out = _score(piece, np.empty((0, 2), dtype=np.int64), "cosine",
                           backend="process", pool=dense_pool)
        assert out.shape == (0,)

    def test_fewer_tuples_than_workers(self, dense_store, dense_pool):
        """Shards beyond the tuple count are dropped, not scored empty."""
        piece = dense_store.load_users(range(10))
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
        out = _score(piece, pairs, "cosine", backend="process",
                           pool=dense_pool)
        _assert_scores_match(piece.similarity_pairs(pairs, "cosine"), out)

    def test_single_worker_pool(self, dense_store):
        piece = dense_store.load_users(range(NUM_USERS))
        pairs = np.array([[0, 1], [5, 9], [10, 11]], dtype=np.int64)
        with ProcessScoringPool(dense_store, num_workers=1) as pool:
            out = _score(piece, pairs, "cosine", backend="process", pool=pool)
        _assert_scores_match(piece.similarity_pairs(pairs, "cosine"), out)

    def test_process_backend_requires_pool(self, dense_store):
        piece = dense_store.load_users(range(10))
        with pytest.raises(ValueError):
            _score(piece, np.array([[0, 1]]), "cosine", backend="process")

    def test_unknown_backend_rejected(self, dense_store):
        piece = dense_store.load_users(range(10))
        with pytest.raises(ValueError):
            _score(piece, np.array([[0, 1]]), "cosine", backend="gpu")

    def test_pool_reuses_cached_slice_per_key(self, dense_store, dense_pool, pairs):
        """Same key twice → same result (worker cache reuse is sound)."""
        piece = dense_store.load_users(range(NUM_USERS))
        part = [("step-a", piece.user_ids)]
        first = dense_pool.score(part, pairs[:, 0], pairs[:, 1], "cosine")
        second = dense_pool.score(part, pairs[:, 0], pairs[:, 1], "cosine")
        _assert_scores_match(piece.similarity_pairs(pairs, "cosine"), first)
        _assert_scores_match(first, second)


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
        threaded = _engine_fingerprint(profiles, backend="thread", num_threads=3)
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
