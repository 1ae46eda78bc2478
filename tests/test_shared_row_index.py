"""``ProfileSlice.merge_indexed`` and the row-addressed pool against it.

This file used to pin the shared-memory row index of PR 5; phase 4 now
addresses every partition slice by partition-local row, so no merged index
is built or shared and the segment is gone.  What stays:

* ``merge_indexed`` ≡ ``merge`` for disjoint slices (dense multi-block and
  sparse CSR), including the no-matrix-allocation property — both remain
  public API for callers that want one id-addressed slice, and
* the process pool scoring two partitions by row being bit-identical to
  the id-addressed merged slice (the pre-PR-14 path, kept as the oracle).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.parallel as parallel_module
from repro.core.parallel import (ScoringWorkers, ShardStepTask,
                                 fork_available)
from repro.similarity.workloads import (generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120


@pytest.fixture(params=["dense", "sparse"])
def store(request, tmp_path):
    if request.param == "dense":
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=3)
    else:
        profiles = generate_sparse_profiles(NUM_USERS, 200, items_per_user=8,
                                            seed=3)
    return OnDiskProfileStore.create(tmp_path / "store", profiles)


def _index_for(a_ids, b_ids):
    concat = np.concatenate([np.asarray(a_ids, dtype=np.int64),
                             np.asarray(b_ids, dtype=np.int64)])
    order = np.argsort(concat, kind="stable")
    return concat[order], order


class TestMergeIndexed:
    def test_equivalent_to_merge(self, store):
        a = store.load_users(range(0, 50))
        b = store.load_users(range(50, NUM_USERS))
        users, order = _index_for(a.user_ids, b.user_ids)
        plain = a.merge(b)
        indexed = a.merge_indexed(b, users, order)
        np.testing.assert_array_equal(indexed.user_ids, plain.user_ids)
        measure = "cosine" if store.kind == "dense" else "jaccard"
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, NUM_USERS, size=(400, 2), dtype=np.int64)
        np.testing.assert_array_equal(indexed.similarity_pairs(pairs, measure),
                                      plain.similarity_pairs(pairs, measure))

    def test_scattered_ids_equivalent(self, store):
        a = store.load_users([0, 7, 30, 31, 99])
        b = store.load_users([3, 8, 29, 100])
        users, order = _index_for(a.user_ids, b.user_ids)
        plain = a.merge(b)
        indexed = a.merge_indexed(b, users, order)
        measure = "cosine" if store.kind == "dense" else "jaccard"
        loaded = np.concatenate([a.user_ids, b.user_ids])
        pairs = np.random.default_rng(5).choice(loaded, size=(100, 2))
        np.testing.assert_array_equal(indexed.similarity_pairs(pairs, measure),
                                      plain.similarity_pairs(pairs, measure))

    def test_dense_merge_stays_multi_block(self, store):
        if store.kind != "dense":
            pytest.skip("dense-only property")
        a = store.load_users(range(0, 60))
        b = store.load_users(range(60, NUM_USERS))
        users, order = _index_for(a.user_ids, b.user_ids)
        merged = a.merge_indexed(b, users, order)
        # no concatenated matrix was allocated: the original mapped blocks
        # back the merged slice as-is
        assert merged.matrix is None
        assert merged.matrix_blocks[0] is a.matrix
        assert merged.matrix_blocks[1] is b.matrix

    def test_length_mismatch_rejected(self, store):
        a = store.load_users(range(0, 10))
        b = store.load_users(range(10, 20))
        users, order = _index_for(a.user_ids, b.user_ids)
        with pytest.raises(ValueError, match="merge index"):
            a.merge_indexed(b, users[:-1], order[:-1])

    def test_overlapping_users_rejected(self, store):
        a = store.load_users(range(0, 10))
        b = store.load_users(range(5, 15))
        users, order = _index_for(a.user_ids, b.user_ids)
        with pytest.raises(ValueError, match="disjoint"):
            a.merge_indexed(b, users, order)


@pytest.mark.skipif(not fork_available(), reason="process pool needs fork")
class TestPoolWithSharedIndex:
    def test_serial_reference_matches(self, store, monkeypatch):
        # cut the 500 rows across both workers
        monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", 0)
        measure = "cosine" if store.kind == "dense" else "jaccard"
        a_ids = np.arange(0, 50, dtype=np.int64)
        b_ids = np.arange(50, NUM_USERS, dtype=np.int64)
        users, order = _index_for(a_ids, b_ids)
        merged = store.load_users(a_ids).merge_indexed(
            store.load_users(b_ids), users, order)
        rng = np.random.default_rng(11)
        left_rows = rng.integers(0, len(a_ids), size=500)
        right_rows = rng.integers(0, len(b_ids), size=500)
        reference = merged.similarity_pairs(
            np.column_stack([a_ids[left_rows], b_ids[right_rows]]), measure)
        parts = ((("p", 0), a_ids), (("p", 1), b_ids))
        forwards = ShardStepTask(parts, ((0, 1, left_rows, right_rows),),
                                 measure, store.generation)
        with ScoringWorkers(store, backend="process", num_workers=2) as pool:
            (scored,) = pool.execute([forwards])
            (backwards,) = pool.execute([ShardStepTask(
                parts[::-1], ((0, 1, right_rows, left_rows),), measure,
                store.generation)])
        np.testing.assert_array_equal(scored, reference)
        np.testing.assert_array_equal(
            backwards, merged.similarity_pairs(
                np.column_stack([b_ids[right_rows], a_ids[left_rows]]), measure))
