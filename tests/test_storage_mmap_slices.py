"""mmap-served profile slices: zero-copy behaviour, parity, read-only safety.

Two protections:

* property-based parity — on random stores, slices served from the mapped
  files (contiguous zero-copy views *and* scattered gathered copies) score
  identically to the copying dict-based loader;
* a regression wall asserting the mapped arrays are served with
  ``writeable=False`` and that no similarity kernel ever writes through
  them (a write would raise, and the backing bytes are checked untouched).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice

# -- strategies -------------------------------------------------------------

dense_matrices = st.integers(2, 20).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(-10, 10, allow_nan=False, width=32),
                     min_size=d, max_size=d),
            min_size=n, max_size=n)))

sparse_profiles_strategy = st.lists(
    st.sets(st.integers(0, 40), max_size=8), min_size=2, max_size=20)


def _subset_ids(num_users: int, draw_mask) -> list:
    ids = [u for u in range(num_users) if draw_mask(u)]
    return ids or [0]


# -- property-based parity ---------------------------------------------------

class TestMmapMatchesCopyingLoader:
    @settings(max_examples=40, deadline=None)
    @given(rows=dense_matrices, mask_seed=st.integers(0, 2**16))
    def test_dense_slices(self, tmp_path_factory, rows, mask_seed):
        matrix = np.asarray(rows, dtype=np.float64)
        store_mem = DenseProfileStore(matrix)
        base = tmp_path_factory.mktemp("prop-dense")
        store = OnDiskProfileStore.create(base, store_mem, disk_model="instant")
        rng = np.random.default_rng(mask_seed)
        ids = _subset_ids(len(matrix), lambda u: rng.random() < 0.6)
        piece = store.load_users(ids)
        # the copying loader: a dict-built slice over the same users
        copying = ProfileSlice("dense", {u: matrix[u] for u in ids},
                               dim=matrix.shape[1])
        for user in ids:
            np.testing.assert_array_equal(piece.get(user), matrix[user])
        pairs = np.asarray(ids, dtype=np.int64)[
            rng.integers(0, len(ids), size=(32, 2))]
        for measure in sorted(VECTOR_MEASURES):
            np.testing.assert_allclose(
                piece.similarity_pairs(pairs, measure),
                copying.similarity_pairs(pairs, measure),
                rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(profiles=sparse_profiles_strategy, mask_seed=st.integers(0, 2**16))
    def test_sparse_slices(self, tmp_path_factory, profiles, mask_seed):
        store_mem = SparseProfileStore(profiles)
        base = tmp_path_factory.mktemp("prop-sparse")
        store = OnDiskProfileStore.create(base, store_mem, disk_model="instant")
        rng = np.random.default_rng(mask_seed)
        ids = _subset_ids(len(profiles), lambda u: rng.random() < 0.6)
        piece = store.load_users(ids)
        copying = ProfileSlice("sparse", {u: set(profiles[u]) for u in ids})
        for user in ids:
            assert piece.get(user) == set(profiles[user])
        pairs = np.asarray(ids, dtype=np.int64)[
            rng.integers(0, len(ids), size=(32, 2))]
        for measure in sorted(SET_MEASURES):
            np.testing.assert_allclose(
                piece.similarity_pairs(pairs, measure),
                copying.similarity_pairs(pairs, measure),
                rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(profiles=sparse_profiles_strategy)
    def test_merged_sparse_slices_match(self, tmp_path_factory, profiles):
        base = tmp_path_factory.mktemp("prop-merge-sparse")
        store = OnDiskProfileStore.create(base, SparseProfileStore(profiles),
                                          disk_model="instant")
        half = len(profiles) // 2 or 1
        merged = store.load_users(range(half)).merge(
            store.load_users(range(half, len(profiles))))
        for user in range(len(profiles)):
            assert merged.get(user) == set(profiles[user])
        pairs = np.array([[u, (u + 1) % len(profiles)]
                          for u in range(len(profiles))], dtype=np.int64)
        copying = ProfileSlice("sparse", {u: set(p) for u, p in enumerate(profiles)})
        for measure in sorted(SET_MEASURES):
            np.testing.assert_allclose(
                merged.similarity_pairs(pairs, measure),
                copying.similarity_pairs(pairs, measure),
                rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(rows=dense_matrices)
    def test_merged_slices_match(self, tmp_path_factory, rows):
        matrix = np.asarray(rows, dtype=np.float64)
        base = tmp_path_factory.mktemp("prop-merge")
        store = OnDiskProfileStore.create(base, DenseProfileStore(matrix),
                                          disk_model="instant")
        half = len(matrix) // 2
        merged = store.load_users(range(half)).merge(
            store.load_users(range(half, len(matrix))))
        assert merged.users == set(range(len(matrix)))
        for user in range(len(matrix)):
            np.testing.assert_array_equal(merged.get(user), matrix[user])


# -- zero-copy and read-only regression wall ---------------------------------

@pytest.fixture
def dense_store(dense_profiles, tmp_path):
    return OnDiskProfileStore.create(tmp_path, dense_profiles, disk_model="instant")


@pytest.fixture
def sparse_store(sparse_profiles, tmp_path):
    return OnDiskProfileStore.create(tmp_path, sparse_profiles, disk_model="instant")


class TestZeroCopy:
    def test_contiguous_dense_slice_is_a_mapped_view(self, dense_store):
        piece = dense_store.load_users(range(10, 40))
        # a plain ndarray view of the store's map: zero-copy, but fancy
        # indexing it never runs np.memmap's Python-level hooks
        assert type(piece.matrix) is np.ndarray
        assert not piece.matrix.flags.writeable
        assert np.shares_memory(piece.matrix, dense_store._dense_maps()[0])
        assert type(piece._norms) is np.ndarray
        assert np.shares_memory(piece._norms, dense_store._dense_maps()[1])

    def test_scattered_dense_slice_is_read_only_copy(self, dense_store):
        piece = dense_store.load_users([0, 2, 4, 50])
        assert not isinstance(piece.matrix, np.memmap)
        assert not piece.matrix.flags.writeable

    def test_contiguous_sparse_codes_are_a_mapped_view(self, sparse_store):
        piece = sparse_store.load_users(range(5, 25))
        codes = piece._csr.codes
        # zero-copy: the codes array is a plain read-only view of the
        # mapped segment file
        assert type(codes) is np.ndarray
        assert not codes.flags.writeable
        assert any(np.shares_memory(codes, mapped)
                   for mapped in sparse_store._sparse().seg_codes)

    def test_mapped_view_tracks_inplace_update(self, dense_store, dense_profiles):
        """The zero-copy slice reads the file, not a snapshot."""
        from repro.similarity.workloads import ProfileChange
        piece = dense_store.load_users(range(0, 5))
        new_vector = np.full(dense_profiles.dim, 7.0)
        dense_store.apply_changes([ProfileChange(user=2, kind="set",
                                                 vector=new_vector)])
        np.testing.assert_array_equal(piece.get(2), new_vector)


class TestKernelsNeverWrite:
    def test_dense_kernels_on_read_only_arrays(self, dense_store):
        piece = dense_store.load_users(range(0, 60))
        before = np.array(piece.matrix)  # snapshot of the mapped bytes
        pairs = np.array([[0, 1], [5, 59], [30, 30]], dtype=np.int64)
        for measure in sorted(VECTOR_MEASURES):
            piece.similarity_pairs(pairs, measure)
        np.testing.assert_array_equal(np.array(piece.matrix), before)

    def test_sparse_kernels_on_read_only_arrays(self, sparse_store):
        piece = sparse_store.load_users(range(0, 60))
        codes_before = np.array(piece._csr.codes)
        pairs = np.array([[0, 1], [5, 59]], dtype=np.int64)
        for measure in sorted(SET_MEASURES):
            piece.similarity_pairs(pairs, measure)
        np.testing.assert_array_equal(np.array(piece._csr.codes), codes_before)

    def test_write_through_mapped_matrix_raises(self, dense_store):
        piece = dense_store.load_users(range(0, 10))
        with pytest.raises((ValueError, RuntimeError)):
            piece.matrix[0, 0] = 1.0

    def test_write_through_gathered_matrix_raises(self, dense_store):
        piece = dense_store.load_users([0, 3, 9, 80])
        with pytest.raises((ValueError, RuntimeError)):
            piece.matrix[0, 0] = 1.0

    def test_norms_served_from_disk_match_matrix(self, dense_store):
        piece = dense_store.load_users(range(0, 30))
        np.testing.assert_array_equal(
            piece._norms, np.linalg.norm(np.array(piece.matrix), axis=1))
