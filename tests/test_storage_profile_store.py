"""Tests for repro.storage.profile_store."""

import json

import numpy as np
import pytest

from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.similarity.workloads import ProfileChange
from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice, _contiguous_ranges


class TestContiguousRanges:
    def test_single_run(self):
        assert list(_contiguous_ranges([1, 2, 3])) == [(1, 4)]

    def test_multiple_runs(self):
        assert list(_contiguous_ranges([0, 1, 5, 6, 9])) == [(0, 2), (5, 7), (9, 10)]

    def test_empty(self):
        assert list(_contiguous_ranges([])) == []


class TestDenseOnDisk:
    def test_roundtrip_full(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles, disk_model="instant")
        assert store.kind == "dense"
        assert store.num_users == dense_profiles.num_users
        assert store.dim == dense_profiles.dim
        loaded = store.load_all()
        assert np.allclose(loaded.matrix, dense_profiles.matrix)

    def test_load_users_slice(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        users = [3, 4, 5, 50, 51]
        piece = store.load_users(users)
        assert piece.users == set(users)
        for user in users:
            assert np.allclose(piece.get(user), dense_profiles.get(user))

    def test_load_users_out_of_range(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        with pytest.raises(IndexError):
            store.load_users([dense_profiles.num_users])

    def test_apply_dense_changes(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        new_vector = np.ones(dense_profiles.dim)
        touched = store.apply_changes([ProfileChange(user=2, kind="set", vector=new_vector)])
        assert touched == 1
        assert np.allclose(store.load_users([2]).get(2), new_vector)

    def test_apply_wrong_change_kind(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        with pytest.raises(ValueError):
            store.apply_changes([ProfileChange(user=0, kind="add", item=1)])

    def test_bytes_per_user(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        assert store.estimated_bytes_per_user() == dense_profiles.dim * 8

    def test_io_recorded(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles, disk_model="hdd")
        assert store.io_stats.write_ops >= 1
        store.load_users([0, 1])
        assert store.io_stats.read_ops >= 1


class TestSparseOnDisk:
    def test_roundtrip_full(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        assert store.kind == "sparse"
        loaded = store.load_all()
        assert loaded == sparse_profiles

    def test_load_users_slice(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        users = [0, 7, 8, 100]
        piece = store.load_users(users)
        for user in users:
            assert piece.get(user) == sparse_profiles.get(user)

    def test_apply_sparse_changes(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        changes = [
            ProfileChange(user=1, kind="add", item=9999),
            ProfileChange(user=1, kind="remove", item=next(iter(sparse_profiles.get(1)))),
        ]
        touched = store.apply_changes(changes)
        assert touched == 1
        assert 9999 in store.load_users([1]).get(1)

    def test_apply_wrong_change_kind(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        with pytest.raises(ValueError):
            store.apply_changes([ProfileChange(user=0, kind="set", vector=np.zeros(3))])

    def test_empty_changes_is_noop(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        assert store.apply_changes([]) == 0

    def test_bytes_per_user_positive(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        assert store.estimated_bytes_per_user() > 0


class TestProfileSlice:
    def test_merge(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        a = store.load_users([0, 1])
        b = store.load_users([2, 3])
        merged = a.merge(b)
        assert merged.users == {0, 1, 2, 3}

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_merge_indexed_on_disjoint_slices_equals_merge(
            self, kind, dense_profiles, sparse_profiles, tmp_path):
        profiles = dense_profiles if kind == "dense" else sparse_profiles
        store = OnDiskProfileStore.create(tmp_path, profiles)
        a = store.load_users([0, 7, 30, 31, 99])
        b = store.load_users([3, 8, 29, 100])
        concat = np.concatenate([a.user_ids, b.user_ids])
        order = np.argsort(concat, kind="stable")
        plain, indexed = a.merge(b), a.merge_indexed(b, concat[order], order)
        np.testing.assert_array_equal(indexed.user_ids, plain.user_ids)
        pairs = np.random.default_rng(5).choice(concat, size=(100, 2))
        measure = "cosine" if kind == "dense" else "jaccard"
        np.testing.assert_array_equal(indexed.similarity_pairs(pairs, measure),
                                      plain.similarity_pairs(pairs, measure))
        with pytest.raises(ValueError, match="merge index"):
            a.merge_indexed(b, concat[order][:-1], order[:-1])
        with pytest.raises(ValueError, match="disjoint"):
            a.merge_indexed(a, np.sort(np.tile(a.user_ids, 2)),
                            np.argsort(np.tile(a.user_ids, 2), kind="stable"))

    def test_merge_kind_mismatch(self, dense_profiles, sparse_profiles, tmp_path):
        dense_store = OnDiskProfileStore.create(tmp_path / "d", dense_profiles)
        sparse_store = OnDiskProfileStore.create(tmp_path / "s", sparse_profiles)
        with pytest.raises(ValueError):
            dense_store.load_users([0]).merge(sparse_store.load_users([0]))

    def test_similarity_pairs_matches_in_memory(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        piece = store.load_users(range(20))
        pairs = np.array([[0, 1], [2, 3], [4, 19]])
        from_slice = piece.similarity_pairs(pairs, "cosine")
        from_store = dense_profiles.similarity_pairs(pairs, "cosine")
        assert np.allclose(from_slice, from_store)

    def test_similarity_pairs_sparse(self, sparse_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
        piece = store.load_users(range(10))
        pairs = np.array([[0, 1], [2, 9]])
        assert np.allclose(piece.similarity_pairs(pairs, "jaccard"),
                           sparse_profiles.similarity_pairs(pairs, "jaccard"))

    def test_missing_user_raises(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        piece = store.load_users([0])
        with pytest.raises(KeyError):
            piece.get(5)

    def test_measure_kind_mismatch(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles)
        piece = store.load_users([0, 1])
        with pytest.raises(ValueError):
            piece.similarity_pairs(np.array([[0, 1]]), "jaccard")


class TestFormatVersions:
    """What a fresh store looks like; the format contract itself (layout
    golden, the open-time gate, migration) is tests/test_storage_format.py."""

    def test_fresh_stores_are_v3(self, dense_profiles, sparse_profiles, tmp_path):
        OnDiskProfileStore.create(tmp_path / "d", dense_profiles)
        OnDiskProfileStore.create(tmp_path / "s", sparse_profiles)
        for name in ("d", "s"):
            meta = json.loads((tmp_path / name / "profiles_meta.json").read_text())
            assert meta["format_version"] == 3
        assert (tmp_path / "d" / "profiles_norms.bin").exists()
        assert (tmp_path / "s" / "profiles_item_ids.bin").exists()
        assert (tmp_path / "s" / "profiles_seg_00000_indptr.bin").exists()
        assert (tmp_path / "s" / "profiles_seg_00000_codes.bin").exists()

    def test_dense_norms_stay_in_sync_after_update(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles,
                                          disk_model="instant")
        vector = np.arange(dense_profiles.dim, dtype=np.float64)
        store.apply_changes([ProfileChange(user=5, kind="set", vector=vector)])
        piece = store.load_users(range(10))
        np.testing.assert_array_equal(
            piece._norms, np.linalg.norm(np.array(piece.matrix), axis=1))


class TestChargeSliceRead:
    def test_dense_contiguous_bytes(self, dense_profiles, tmp_path):
        """Byte math pinned independently: rows × (dim + 1 norm) × 8, one op."""
        store = OnDiskProfileStore.create(tmp_path, dense_profiles, disk_model="ssd")
        store.io_stats.reset()
        store.charge_slice_read(range(20, 60))
        assert store.io_stats.read_ops == 1
        assert store.io_stats.bytes_read == 40 * (dense_profiles.dim + 1) * 8
        assert store.io_stats.simulated_io_seconds > 0

    def test_dense_scattered_charges_per_range(self, dense_profiles, tmp_path):
        store = OnDiskProfileStore.create(tmp_path, dense_profiles, disk_model="ssd")
        store.io_stats.reset()
        store.charge_slice_read([0, 1, 2, 50, 51, 119])  # three ranges
        row_bytes = (dense_profiles.dim + 1) * 8
        assert store.io_stats.read_ops == 3
        assert store.io_stats.bytes_read == 6 * row_bytes

    def test_sparse_contiguous_bytes(self, sparse_profiles, tmp_path):
        """Bytes = the users' item codes plus the indptr slice, one op."""
        store = OnDiskProfileStore.create(tmp_path, sparse_profiles, disk_model="ssd")
        num_codes = sum(len(sparse_profiles.get(u)) for u in range(10, 30))
        store.io_stats.reset()
        store.charge_slice_read(range(10, 30))
        assert store.io_stats.read_ops == 1
        assert store.io_stats.bytes_read == (num_codes + 21) * 8

    def test_charge_equals_load_invariant(self, dense_profiles, sparse_profiles,
                                          tmp_path):
        """load_users routes its accounting through charge_slice_read; this
        pins that invariant so the two can never drift apart silently."""
        for name, profiles, ids in (("d", dense_profiles, range(20, 60)),
                                    ("s", sparse_profiles, [0, 1, 2, 50, 51, 119])):
            store = OnDiskProfileStore.create(tmp_path / name, profiles,
                                              disk_model="ssd")
            store.io_stats.reset()
            store.load_users(ids)
            loaded = store.io_stats.as_dict()
            store.io_stats.reset()
            store.charge_slice_read(ids)
            assert store.io_stats.as_dict() == loaded


class TestTouchedRowDeltas:
    """touched_rows_since: the delta feed of the incremental phase 4."""

    def _sparse_store(self, tmp_path, journal_limit=None):
        profiles = SparseProfileStore(
            [{i, i + 1, i + 2} for i in range(40)])
        return OnDiskProfileStore.create(tmp_path, profiles,
                                         journal_limit=journal_limit)

    def test_fresh_store_reports_no_deltas(self, tmp_path):
        store = self._sparse_store(tmp_path / "s")
        assert store.touched_rows_since(store.generation).size == 0

    def test_deltas_accumulate_across_batches(self, tmp_path):
        store = self._sparse_store(tmp_path / "s")
        g0 = store.generation
        store.apply_changes([ProfileChange(user=3, kind="add", item=900)])
        g1 = store.generation
        store.apply_changes([ProfileChange(user=7, kind="add", item=901),
                             ProfileChange(user=3, kind="remove", item=900)])
        np.testing.assert_array_equal(store.touched_rows_since(g0), [3, 7])
        np.testing.assert_array_equal(store.touched_rows_since(g1), [3, 7])
        assert store.touched_rows_since(store.generation).size == 0

    def test_dense_deltas(self, tmp_path):
        profiles = DenseProfileStore(np.eye(10))
        store = OnDiskProfileStore.create(tmp_path / "d", profiles)
        g0 = store.generation
        store.apply_changes([ProfileChange(user=4, kind="set",
                                           vector=np.ones(10))])
        np.testing.assert_array_equal(store.touched_rows_since(g0), [4])

    def test_unknown_generations_answer_none(self, tmp_path):
        store = self._sparse_store(tmp_path / "s")
        assert store.touched_rows_since(store.generation + 1) is None  # future
        assert store.touched_rows_since(store.generation - 1) is None  # pre-history

    def test_reload_truncates_history(self, tmp_path):
        store = self._sparse_store(tmp_path / "s")
        g0 = store.generation
        store.apply_changes([ProfileChange(user=1, kind="add", item=902)])
        store.reload()
        assert store.touched_rows_since(g0) is None
        assert store.touched_rows_since(store.generation).size == 0

    def test_compaction_truncates_history(self, tmp_path):
        store = self._sparse_store(tmp_path / "s", journal_limit=2)
        g0 = store.generation
        store.apply_changes([ProfileChange(user=u, kind="add", item=910 + u)
                             for u in range(5)])  # 5 > 2: compacts
        assert store.touched_rows_since(g0) is None
        # history restarts cleanly after the rollover
        g_after = store.generation
        store.apply_changes([ProfileChange(user=9, kind="add", item=990)])
        np.testing.assert_array_equal(store.touched_rows_since(g_after), [9])

    def test_full_rewrite_truncates_history(self, tmp_path):
        profiles = SparseProfileStore([{i} for i in range(20)])
        g0 = OnDiskProfileStore.create(tmp_path / "s", profiles).generation
        # create() over an existing store rewrites every file
        store = OnDiskProfileStore.create(tmp_path / "s", profiles)
        assert store.generation == g0 + 1
        assert store.touched_rows_since(g0) is None

    def test_delta_log_cap_raises_the_floor(self, tmp_path):
        import repro.storage.profile_store as module
        store = self._sparse_store(tmp_path / "s", journal_limit=10_000)
        g0 = store.generation
        for index in range(module._DELTA_LOG_LIMIT + 3):
            store.apply_changes([ProfileChange(user=index % 40, kind="add",
                                               item=1000 + index)])
        assert store.touched_rows_since(g0) is None  # oldest entries dropped
        recent = store.generation - 5
        touched = store.touched_rows_since(recent)
        assert touched is not None and len(touched) <= 5


class TestErrors:
    def test_open_without_create(self, tmp_path):
        store = OnDiskProfileStore(tmp_path)
        with pytest.raises(RuntimeError):
            _ = store.num_users

    def test_opening_does_not_create_the_directory(self, tmp_path):
        store = OnDiskProfileStore(tmp_path / "typo" / "profiles")
        with pytest.raises(RuntimeError, match="no profile store"):
            store.load_users([0])
        store.reload()
        assert not (tmp_path / "typo").exists()

    def test_unsupported_store_type(self, tmp_path):
        with pytest.raises(TypeError):
            OnDiskProfileStore.create(tmp_path, object())
