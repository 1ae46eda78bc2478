"""Segmented sparse stores, their journal, and slice merges.

Three protections for the amortised iteration loop's storage layer:

* property-based parity — across random phase-5 update sequences, a
  journaled / compacted store (tiny journal cap, so both the journal path
  and the compaction path are exercised constantly) serves exactly the
  same profiles and bit-identical scores as an oracle that shares none of
  the update code: the in-memory ``SparseProfileStore`` the same changes
  were applied to, and a store freshly ``create()``d from it;
* write-byte scaling — incremental updates write bytes proportional to the
  touched rows, never the store size;
* merges — the union of two slices scores bit-identically to one slice
  loaded whole, with the other slice winning an overlap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.profiles import SparseProfileStore
from repro.similarity.workloads import ProfileChange
from repro.storage.profile_store import (OnDiskProfileStore, ProfileSlice,
                                         partition_aligned_bounds)

# -- strategies -------------------------------------------------------------

profiles_strategy = st.lists(st.sets(st.integers(0, 30), max_size=6),
                             min_size=3, max_size=24)

change_batches = st.lists(
    st.lists(st.tuples(st.booleans(),              # add (True) / remove
                       st.integers(0, 40),         # item (may be unseen)
                       st.integers(0, 1_000_000)), # user (mod num_users)
             min_size=1, max_size=8),
    min_size=1, max_size=5)


def _to_changes(batch, num_users):
    return [ProfileChange(user=user % num_users,
                          kind="add" if add else "remove", item=item)
            for add, item, user in batch]


class TestSegmentedMatchesRewrite:
    """The journaled store against a store rewritten in full from the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(profiles=profiles_strategy, batches=change_batches,
           pair_seed=st.integers(0, 2**16))
    def test_random_update_sequences(self, tmp_path_factory, profiles, batches,
                                     pair_seed):
        num_users = len(profiles)
        base = tmp_path_factory.mktemp("journal-parity")
        oracle = SparseProfileStore(profiles)
        # three segments and a 2-entry journal cap force journal appends,
        # latest-entry-wins overrides AND partial compactions in a short run
        store = OnDiskProfileStore.create(
            base / "journaled", oracle, disk_model="instant",
            segment_bounds=partition_aligned_bounds(num_users, 3),
            journal_limit=2)
        rng = np.random.default_rng(pair_seed)
        for index, batch in enumerate(batches):
            changes = _to_changes(batch, num_users)
            assert (store.apply_changes(changes)
                    == oracle.apply_profile_changes(changes))
            assert store.load_all() == oracle
            fresh = OnDiskProfileStore.create(base / f"fresh-{index}", oracle,
                                              disk_model="instant")
            ids = sorted(set(rng.integers(0, num_users, size=4).tolist()))
            piece, piece_fresh = store.load_users(ids), fresh.load_users(ids)
            for user in ids:
                assert piece.get(user) == oracle.get(user)
            pairs = np.asarray(ids, dtype=np.int64)[
                rng.integers(0, len(ids), size=(16, 2))]
            for measure in sorted(SET_MEASURES):
                np.testing.assert_array_equal(
                    piece.similarity_pairs(pairs, measure),
                    piece_fresh.similarity_pairs(pairs, measure))

    def test_journal_then_compaction_roundtrip(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles,
                                          disk_model="instant",
                                          segment_bounds=[0, 40, 80, 120],
                                          journal_limit=3)
        expected = {u: sparse_profiles.get(u)
                    for u in range(sparse_profiles.num_users)}
        rng = np.random.default_rng(5)
        for round_index in range(6):
            users = rng.integers(0, 120, size=2)
            changes = []
            for user in users.tolist():
                item = int(rng.integers(0, 500))
                changes.append(ProfileChange(user=user, kind="add", item=item))
                expected[user] = expected[user] | {item}
            store.apply_changes(changes)
        reloaded = store.load_all()
        for user, items in expected.items():
            assert reloaded.get(user) == items
        # scattered loads cross segments and journal entries alike
        piece = store.load_users([0, 39, 40, 41, 119])
        for user in (0, 39, 40, 41, 119):
            assert piece.get(user) == expected[user]

    def test_partition_aligned_bounds_match_contiguous_split(self):
        # partition of vertex v is v*m//n; bounds must hit every boundary
        n, m = 103, 8
        bounds = partition_aligned_bounds(n, m)
        assignment = np.arange(n) * m // n
        starts = [0] + list(np.flatnonzero(np.diff(assignment)) + 1)
        assert bounds == sorted(set(starts) | {n})

    def test_generation_bumps_on_every_update(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles,
                                          disk_model="instant")
        first = store.generation
        store.apply_changes([ProfileChange(user=0, kind="add", item=777)])
        second = store.generation
        assert second == first + 1
        # a re-opened handle (a worker) sees the bumped generation after reload
        worker = OnDiskProfileStore(tmp_path, disk_model="instant")
        assert worker.generation == second
        store.apply_changes([ProfileChange(user=1, kind="add", item=778)])
        assert worker.generation == second  # stale until told to reload
        worker.reload()
        assert worker.generation == second + 1
        assert 778 in worker.load_users([1]).get(1)


class TestUpdateWriteBytesScale:
    def test_sparse_writes_scale_with_touched_rows(self, tmp_path):
        profiles = SparseProfileStore([{i, i + 1, i + 2} for i in range(2000)])
        store = OnDiskProfileStore.create(tmp_path, profiles, disk_model="ssd")
        store_bytes = sum(path.stat().st_size
                          for path in tmp_path.glob("profiles_seg_*.bin"))
        store.io_stats.reset()
        store.apply_changes([ProfileChange(user=u, kind="add", item=9000 + u)
                             for u in range(5)])
        written = store.io_stats.bytes_written
        assert written > 0
        # five touched rows of ~4 items: orders of magnitude below the store
        assert written < store_bytes / 10
        # ten times the touched rows stays linear-ish, never store-sized
        store.io_stats.reset()
        store.apply_changes([ProfileChange(user=u, kind="add", item=9500 + u)
                             for u in range(50)])
        assert store.io_stats.bytes_written < store_bytes / 2

    def test_dense_negative_user_rejected(self, dense_profiles, tmp_path):
        """A negative id must raise, not wrap onto another user's mapped row."""
        store = OnDiskProfileStore.create(tmp_path, dense_profiles,
                                          disk_model="instant")
        last_row = np.array(store.load_users([dense_profiles.num_users - 1])
                            .get(dense_profiles.num_users - 1))
        with pytest.raises(IndexError):
            store.apply_changes([ProfileChange(
                user=-1, kind="set",
                vector=np.zeros(dense_profiles.dim))])
        np.testing.assert_array_equal(
            store.load_users([dense_profiles.num_users - 1])
            .get(dense_profiles.num_users - 1), last_row)

    def test_dense_writes_coalesce_superseded_changes(self, dense_profiles,
                                                      tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles,
                                          disk_model="ssd")
        store.io_stats.reset()
        vectors = [np.full(dense_profiles.dim, float(i)) for i in range(10)]
        touched = store.apply_changes(
            [ProfileChange(user=3, kind="set", vector=v) for v in vectors])
        assert touched == 1
        # only the last write of the user's row hits the device
        assert store.io_stats.write_ops == 1
        assert np.allclose(store.load_users([3]).get(3), vectors[-1])


class TestSliceMerges:
    def test_merged_scores_match_the_whole_slice(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles,
                                          disk_model="instant")
        merged = store.load_users(range(0, 60)).merge(
            store.load_users(range(60, 120)))
        whole = store.load_users(range(120))
        assert merged.users == set(range(120))
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 120, size=(300, 2)).astype(np.int64)
        for measure in sorted(VECTOR_MEASURES):
            np.testing.assert_array_equal(
                merged.similarity_pairs(pairs, measure),
                whole.similarity_pairs(pairs, measure))

    def test_interleaved_slices_resolve_rows(self, dense_profiles, tmp_path):
        """Scattered (hash-partition shaped) slices interleave user ids."""
        store = OnDiskProfileStore.create(tmp_path, dense_profiles,
                                          disk_model="instant")
        evens = store.load_users(range(0, 60, 2))
        odds = store.load_users(range(1, 60, 2))
        merged = evens.merge(odds)
        for user in range(60):
            np.testing.assert_array_equal(merged.get(user),
                                          dense_profiles.get(user))

    def test_the_other_dense_slice_wins_an_overlap(self):
        a = ProfileSlice("dense", {0: np.array([1.0, 1.0]), 1: np.array([2.0, 2.0])})
        b = ProfileSlice("dense", {1: np.array([9.0, 9.0]), 2: np.array([3.0, 3.0])})
        merged = a.merge(b)
        np.testing.assert_array_equal(merged.user_ids, [0, 1, 2])
        np.testing.assert_array_equal(merged.matrix, [[1, 1], [9, 9], [3, 3]])
        np.testing.assert_array_equal(merged._norms,
                                      np.linalg.norm(merged.matrix, axis=1))
        np.testing.assert_array_equal(b.merge(a).get(1), [2.0, 2.0])

    def test_the_other_sparse_slice_wins_an_overlap(self, sparse_profiles,
                                                    tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles,
                                          disk_model="instant")
        before = store.load_users(range(0, 30))
        # the journal append leaves the mapped segments `before` views alone
        store.apply_changes([ProfileChange(user=25, kind="remove",
                                           item=min(sparse_profiles.get(25)))])
        after = store.load_users(range(20, 50))
        merged = before.merge(after)
        np.testing.assert_array_equal(merged.user_ids, np.arange(50))
        assert merged.get(25) == after.get(25) != before.get(25)
        assert after.merge(before).get(25) == before.get(25)

    def test_three_way_merge(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles,
                                          disk_model="instant")
        merged = (store.load_users(range(0, 30))
                  .merge(store.load_users(range(30, 60)))
                  .merge(store.load_users(range(60, 90))))
        pairs = np.array([[0, 89], [31, 59], [5, 65]], dtype=np.int64)
        whole = store.load_users(range(90))
        np.testing.assert_array_equal(merged.similarity_pairs(pairs, "cosine"),
                                      whole.similarity_pairs(pairs, "cosine"))
