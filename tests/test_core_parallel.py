"""Tests for repro.core.parallel: the in-process dispatch and the row split."""

import numpy as np
import pytest

import repro.core.parallel as parallel_module
from repro.core.parallel import (ScoringWorkers, ShardStepTask, _split_rows,
                                 score_tuples)
from repro.storage.profile_store import OnDiskProfileStore


@pytest.fixture
def dense_store(dense_profiles, tmp_path):
    return OnDiskProfileStore.create(tmp_path, dense_profiles,
                                     disk_model="instant")


@pytest.fixture
def dense_slice(dense_store, dense_profiles):
    return dense_store.load_users(range(dense_profiles.num_users))


@pytest.fixture
def pairs(dense_profiles):
    rng = np.random.default_rng(3)
    return rng.integers(0, dense_profiles.num_users, size=(500, 2)).astype(np.int64)


def _score(piece, pairs, measure):
    """``score_tuples`` on a slice holding users ``0..n-1`` (row == id)."""
    return score_tuples(piece, pairs[:, 0], piece, pairs[:, 1], measure)


def _task(num_users, pairs, measure="cosine"):
    """Id pairs as one task over the whole store (row == id)."""
    return ShardStepTask(parts=(("all", np.arange(num_users)),),
                         batches=((0, 0, pairs[:, 0], pairs[:, 1]),),
                         measure=measure, generation=None)


def _threaded(store, pairs, num_workers, floor, monkeypatch):
    """One lone task on the thread transport, cut above ``floor`` rows."""
    monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", floor)
    with ScoringWorkers(store, backend="thread",
                        num_workers=num_workers) as workers:
        (scores,) = workers.execute([_task(store.num_users, pairs)])
    return scores


class TestScoreTuples:
    def test_single_thread_matches_slice(self, dense_slice, pairs):
        expected = dense_slice.similarity_pairs(pairs, "cosine")
        assert np.allclose(_score(dense_slice, pairs, "cosine"), expected)

    def test_multi_thread_matches_single_thread(self, dense_store, dense_slice,
                                                pairs, monkeypatch):
        single = _score(dense_slice, pairs, "cosine")
        multi = _threaded(dense_store, pairs, 4, 64, monkeypatch)
        assert np.array_equal(single, multi)

    def test_result_alignment_preserved(self, dense_store, dense_slice, pairs,
                                        monkeypatch):
        scores = _threaded(dense_store, pairs, 3, 50, monkeypatch)
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

    def test_invalid_thread_count(self, dense_store):
        with pytest.raises(ValueError):
            ScoringWorkers(dense_store, backend="thread", num_workers=0)

    def test_chunking_smaller_than_batch(self, dense_store, pairs, monkeypatch):
        scores = _threaded(dense_store, pairs[:10], 4, 3, monkeypatch)
        assert len(scores) == 10

    def test_serial_backend_ignores_threads(self, dense_store, dense_slice,
                                            pairs, monkeypatch):
        monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", 16)
        with ScoringWorkers(dense_store, backend="serial",
                            num_workers=8) as workers:
            assert workers.transport == "inline"
            (serial,) = workers.execute([_task(dense_store.num_users, pairs)])
        assert np.array_equal(serial, dense_slice.similarity_pairs(pairs, "cosine"))


def _pieces(num_rows, width, floor, monkeypatch):
    """Row counts of the sub-tasks one ``num_rows`` batch is cut into."""
    monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", floor)
    rows = np.arange(num_rows)
    task = ShardStepTask(parts=(("all", range(num_rows)),),
                         batches=((0, 0, rows, rows),), measure="cosine",
                         generation=None)
    subtasks, runs, total = _split_rows(task, width)
    assert total == num_rows and len(runs) == len(subtasks)
    assert [run for piece in runs for run in piece] == sorted(
        run for piece in runs for run in piece)
    return [len(sub.batches[0][2]) for sub in subtasks]


class TestChunkPlanning:
    """A lone task is cut into at most one piece per worker, none empty."""

    def test_no_empty_chunks_when_tuples_barely_exceed_chunk_size(self, monkeypatch):
        # 4097 rows, floor 4096, 8 workers: 8 balanced pieces, not one big
        # piece and 7 near-empty ones
        pieces = _pieces(4097, 8, 4096, monkeypatch)
        assert len(pieces) == 8 and min(pieces) >= 512

    def test_clamped_to_tuple_count(self, monkeypatch):
        # fewer rows than workers: one piece per row at most
        assert _pieces(5, 8, 2, monkeypatch) == [1] * 5

    def test_never_more_pieces_than_workers(self, monkeypatch):
        assert _pieces(100000, 4, 4096, monkeypatch) == [25000] * 4

    def test_a_batch_at_the_floor_is_not_cut(self, monkeypatch):
        assert _pieces(4096, 8, 4096, monkeypatch) == [4096]

    def test_single_tuple(self, monkeypatch):
        assert _pieces(1, 8, 4096, monkeypatch) == [1]

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 9))
    def test_boundary_sizes_score_correctly(self, dense_store, dense_slice,
                                            pairs, n, monkeypatch):
        got = _threaded(dense_store, pairs[:n], 8, 2, monkeypatch)
        expected = dense_slice.similarity_pairs(pairs[:n], "cosine")
        assert np.array_equal(got, expected)
        # and the plan itself never produces an empty piece
        assert all(_pieces(n, 8, 2, monkeypatch))

    def test_each_batch_is_cut_on_its_own(self, monkeypatch):
        """Two batches, one below the floor: piece ``j`` of the large one
        rides in sub-task ``j``, the small one whole in sub-task 0, and the
        runs say where each sub-task's scores belong."""
        monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", 4)
        small, large = np.arange(3), np.arange(10)
        task = ShardStepTask(parts=(("p", range(10)), ("q", range(10, 20))),
                             batches=((0, 1, small, small), (1, 0, large, large)),
                             measure="cosine", generation=None)
        subtasks, runs, total = _split_rows(task, 3)
        assert total == 13
        assert [[len(b[2]) for b in sub.batches] for sub in subtasks] == [
            [3, 4], [3], [3]]
        assert runs == [[(0, 3), (3, 7)], [(7, 10)], [(10, 13)]]
        assert all(sub.parts == task.parts for sub in subtasks)
