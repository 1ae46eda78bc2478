"""Tests for repro.core.parallel."""

import numpy as np
import pytest

from repro.core.parallel import _num_chunks, score_tuples
from repro.storage.profile_store import OnDiskProfileStore


@pytest.fixture
def dense_slice(dense_profiles, tmp_path):
    store = OnDiskProfileStore.create(tmp_path, dense_profiles, disk_model="instant")
    return store.load_users(range(dense_profiles.num_users))


@pytest.fixture
def pairs(dense_profiles):
    rng = np.random.default_rng(3)
    return rng.integers(0, dense_profiles.num_users, size=(500, 2)).astype(np.int64)


def _score(piece, pairs, measure, **options):
    """``score_tuples`` on a slice holding users ``0..n-1`` (row == id)."""
    return score_tuples(piece, pairs[:, 0], piece, pairs[:, 1], measure,
                        **options)


class TestScoreTuples:
    def test_single_thread_matches_slice(self, dense_slice, pairs):
        expected = dense_slice.similarity_pairs(pairs, "cosine")
        got = _score(dense_slice, pairs, "cosine", num_threads=1)
        assert np.allclose(got, expected)

    def test_multi_thread_matches_single_thread(self, dense_slice, pairs):
        single = _score(dense_slice, pairs, "cosine", num_threads=1)
        multi = _score(dense_slice, pairs, "cosine", num_threads=4, chunk_size=64)
        assert np.allclose(single, multi)

    def test_result_alignment_preserved(self, dense_slice, pairs):
        scores = _score(dense_slice, pairs, "cosine", num_threads=3, chunk_size=50)
        for i in (0, 123, 499):
            expected = dense_slice.similarity_pairs(pairs[i:i + 1], "cosine")[0]
            assert scores[i] == pytest.approx(expected)

    def test_empty_input(self, dense_slice):
        out = _score(dense_slice, np.empty((0, 2), dtype=np.int64), "cosine")
        assert out.shape == (0,)

    def test_bad_shape_rejected(self, dense_slice):
        rows = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError):
            score_tuples(dense_slice, rows, dense_slice, rows[:3], "cosine")
        with pytest.raises(ValueError):
            score_tuples(dense_slice, rows.reshape(2, 2), dense_slice,
                         rows.reshape(2, 2), "cosine")

    def test_out_of_range_rows_rejected(self, dense_slice):
        rows = np.zeros(4, dtype=np.int64)
        for bad in (-1, len(dense_slice)):
            with pytest.raises(IndexError):
                score_tuples(dense_slice, rows, dense_slice,
                             np.array([0, 1, bad, 2]), "cosine")

    def test_invalid_thread_count(self, dense_slice, pairs):
        with pytest.raises(ValueError):
            _score(dense_slice, pairs, "cosine", num_threads=0)

    def test_chunking_smaller_than_batch(self, dense_slice, pairs):
        scores = _score(dense_slice, pairs[:10], "cosine", num_threads=4, chunk_size=3)
        assert len(scores) == 10

    def test_serial_backend_ignores_threads(self, dense_slice, pairs):
        serial = _score(dense_slice, pairs, "cosine", num_threads=8,
                              chunk_size=16, backend="serial")
        assert np.array_equal(serial, dense_slice.similarity_pairs(pairs, "cosine"))


class TestChunkPlanning:
    """The chunk count is clamped so no chunk of the thread pool is empty."""

    def test_no_empty_chunks_when_tuples_barely_exceed_chunk_size(self):
        # 4097 tuples, chunk_size 4096, 8 threads: 8 balanced chunks, not
        # 8 chunks of which 7 are near-empty
        assert _num_chunks(4097, 8, 4096) == 8

    def test_clamped_to_tuple_count(self):
        # fewer tuples than threads: one chunk per tuple at most
        assert _num_chunks(5, 8, 2) == 5

    def test_at_least_one_chunk_per_thread(self):
        assert _num_chunks(100000, 4, 4096) == 25

    def test_chunk_size_bound_dominates_when_larger(self):
        assert _num_chunks(100000, 2, 4096) == 25

    def test_single_tuple(self):
        assert _num_chunks(1, 8, 4096) == 1

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 9))
    def test_boundary_sizes_score_correctly(self, dense_slice, pairs, n):
        got = _score(dense_slice, pairs[:n], "cosine",
                           num_threads=8, chunk_size=2)
        expected = dense_slice.similarity_pairs(pairs[:n], "cosine")
        assert np.allclose(got, expected)
        # and the plan itself never produces an empty chunk
        chunks = np.array_split(pairs[:n], _num_chunks(n, 8, 2))
        assert all(len(chunk) for chunk in chunks)
